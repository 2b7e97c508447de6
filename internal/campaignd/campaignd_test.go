package campaignd

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"teledrive/internal/telemetry"
	"teledrive/internal/transport"
)

var update = flag.Bool("update", false, "rewrite the distributed-equivalence golden")

// equivalenceGolden pins the per-drive trace fingerprints of the
// battery's canonical campaign, so a change to the run machinery, the
// wire codec, or the JSON round-trip that perturbs trajectories fails
// here even if both sides drift in lockstep.
type equivalenceGolden struct {
	Digest       string            `json:"plan_digest"`
	Fingerprints map[string]string `json:"fingerprints"`
}

// TestDistributedEquivalence is the tentpole acceptance test: one
// coordinator plus two workers over localhost TCP must produce a
// campaign.Result deeply equal to `campaign -workers 2`, render
// byte-identical report tables, and match the per-drive fingerprint
// golden.
func TestDistributedEquivalence(t *testing.T) {
	skipInShort(t)
	ref := referenceResult(t)

	reg := telemetry.NewRegistry()
	coord := &Coordinator{Spec: testSpec(), Registry: reg}
	addr, done := startCoordinator(t, coord, nil)

	ctx := context.Background()
	w1 := runWorker(ctx, &Worker{ID: "w1", Capacity: 2, Registry: telemetry.NewRegistry()}, addr)
	w2 := runWorker(ctx, &Worker{ID: "w2", Capacity: 2, Registry: telemetry.NewRegistry()}, addr)

	cr := waitCoord(t, done, 2*time.Minute)
	if cr.err != nil {
		t.Fatalf("coordinator: %v", cr.err)
	}
	for i, errc := range []<-chan error{w1, w2} {
		if err := <-errc; err != nil {
			t.Fatalf("worker %d: %v", i+1, err)
		}
	}

	// Byte-identical rendered tables (the full report pipeline).
	assertReportMatchesReference(t, cr.res)

	// Bit-identical trace fingerprints, pinned by the golden.
	refFP := fingerprints(t, ref)
	distFP := fingerprints(t, cr.res)
	if !reflect.DeepEqual(refFP, distFP) {
		t.Errorf("trace fingerprints diverge:\nin-process: %v\ndistributed: %v", refFP, distFP)
	}
	plan, err := testSpec().BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalenceGolden(t, equivalenceGolden{Digest: PlanDigest(plan), Fingerprints: distFP})

	// Deep structural equality of the full Result.
	refCopy, distCopy := *ref, *cr.res
	stripVolatile(&refCopy)
	stripVolatile(&distCopy)
	if !reflect.DeepEqual(&refCopy, &distCopy) {
		t.Error("distributed campaign.Result is not deeply equal to the in-process result")
	}

	// Coordinator telemetry saw the whole campaign.
	prom := promDump(t, reg)
	for _, want := range []string{
		`campaignd_cells_total{event="planned"} 6`,
		`campaignd_cells_total{event="done"} 6`,
		`campaignd_worker_cells_total{worker="w1"}`,
		`campaignd_worker_cells_total{worker="w2"}`,
		`campaignd_protocol_errors_total 0`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("telemetry missing %q in:\n%s", want, prom)
		}
	}
}

func promDump(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func checkEquivalenceGolden(t *testing.T, got equivalenceGolden) {
	t.Helper()
	path := filepath.Join("testdata", "equivalence.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	var want equivalenceGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if want.Digest != got.Digest {
		t.Errorf("plan digest drifted: golden %s, got %s (rerun with -update if intended)", want.Digest, got.Digest)
	}
	if !reflect.DeepEqual(want.Fingerprints, got.Fingerprints) {
		t.Errorf("trace fingerprints drifted from golden (rerun with -update if intended):\nwant %v\ngot  %v", want.Fingerprints, got.Fingerprints)
	}
}

// TestSingleWorkerResume exercises the short-circuit path: a campaign
// whose journal is already complete assembles without any worker.
func TestJournalShortCircuit(t *testing.T) {
	skipInShort(t)
	dir := t.TempDir()
	journal := filepath.Join(dir, "j.jsonl")

	// First run: one worker completes everything, journaled.
	coord := &Coordinator{Spec: testSpec(), JournalPath: journal}
	addr, done := startCoordinator(t, coord, nil)
	werr := runWorker(context.Background(), &Worker{ID: "solo", Capacity: 2}, addr)
	first := waitCoord(t, done, 2*time.Minute)
	if first.err != nil {
		t.Fatalf("first run: %v", first.err)
	}
	if err := <-werr; err != nil {
		t.Fatalf("worker: %v", err)
	}

	// Second run: same spec + journal, NO workers — must return
	// immediately from the journal alone.
	reg := telemetry.NewRegistry()
	coord2 := &Coordinator{Spec: testSpec(), JournalPath: journal, Registry: reg}
	_, done2 := startCoordinator(t, coord2, nil)
	second := waitCoord(t, done2, 30*time.Second)
	if second.err != nil {
		t.Fatalf("resume from complete journal: %v", second.err)
	}

	a, b := *first.res, *second.res
	stripVolatile(&a)
	stripVolatile(&b)
	if !reflect.DeepEqual(&a, &b) {
		t.Error("journal-only assembly differs from the live run")
	}
	if !strings.Contains(promDump(t, reg), `campaignd_cells_total{event="restored"} 6`) {
		t.Error("restored counter did not see the replayed cells")
	}
}

// TestProtocolErrorsCountedAndConnClosed feeds the coordinator raw
// garbage and a well-framed-but-wrong first message: each must bump
// campaignd_protocol_errors_total and close the connection, without
// disturbing the campaign (a real worker still completes it).
func TestProtocolErrorsCountedAndConnClosed(t *testing.T) {
	skipInShort(t)
	reg := telemetry.NewRegistry()
	coord := &Coordinator{Spec: testSpec(), Registry: reg, WorkerTimeout: 5 * time.Second}
	addr, done := startCoordinator(t, coord, nil)

	// Raw garbage: not even a frame.
	garbage, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := garbage.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	assertConnClosed(t, garbage)

	// Valid framing, but the first message is not a hello.
	wrong, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := newSender(wrong).send(&msg{T: msgResult, Cell: 0}); err != nil {
		t.Fatal(err)
	}
	assertConnClosed(t, wrong)

	// The campaign is unharmed: a real worker completes it.
	werr := runWorker(context.Background(), &Worker{ID: "w", Capacity: 2}, addr)
	cr := waitCoord(t, done, 2*time.Minute)
	if cr.err != nil {
		t.Fatalf("coordinator: %v", cr.err)
	}
	if err := <-werr; err != nil {
		t.Fatalf("worker: %v", err)
	}

	prom := promDump(t, reg)
	if !strings.Contains(prom, "campaignd_protocol_errors_total 2") {
		t.Errorf("want 2 protocol errors counted, got:\n%s",
			grepLine(prom, "campaignd_protocol_errors_total"))
	}
}

// assertConnClosed waits (bounded) for the remote to close the
// connection.
func assertConnClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 1024)
	for {
		if _, err := conn.Read(buf); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("coordinator left a hostile connection open")
			}
			return // closed — what we want
		}
	}
}

func grepLine(s, substr string) string {
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			return line
		}
	}
	return "(absent)"
}

// TestWorkerRejectsDigestMismatch: a worker whose locally rebuilt plan
// disagrees with the coordinator's digest must refuse to run rather
// than produce divergent results. A fake coordinator serves the plan
// with a corrupted digest, a wrong cell count, or no worker timeout to
// derive the heartbeat from.
func TestWorkerRejectsDigestMismatch(t *testing.T) {
	spec := testSpec()
	plan, err := spec.BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	goodDigest := PlanDigest(plan)
	timeout := DefaultWorkerTimeout.Nanoseconds()

	cases := []struct {
		name   string
		plan   msg
		wanted string
	}{
		{"corrupt digest", msg{T: msgPlan, Spec: &spec, Digest: "bogus", Cells: len(plan.Cells), TimeoutNS: timeout}, "digest mismatch"},
		{"wrong cell count", msg{T: msgPlan, Spec: &spec, Digest: goodDigest, Cells: len(plan.Cells) + 1, TimeoutNS: timeout}, "cell count mismatch"},
		{"plan without a positive timeout", msg{T: msgPlan, Spec: &spec, Digest: goodDigest, Cells: len(plan.Cells)}, "plan carries worker timeout 0s"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				if _, err := readMsg(transport.NewStreamReader(conn)); err != nil {
					return // expected a hello
				}
				_ = newSender(conn).send(&tc.plan)
				// Hold the connection open; the worker must walk away.
				buf := make([]byte, 1)
				_, _ = conn.Read(buf)
			}()
			err = (&Worker{ID: "w"}).Run(context.Background(), ln.Addr().String())
			if err == nil || !strings.Contains(err.Error(), tc.wanted) {
				t.Fatalf("want %q error, got %v", tc.wanted, err)
			}
		})
	}
}
