package campaignd

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"teledrive/internal/campaign"
	"teledrive/internal/scenario"
	"teledrive/internal/telemetry"
	"teledrive/internal/transport"
)

// assertEqualToReference strips volatiles and deep-compares a chaos
// run's result against the single-process reference.
func assertEqualToReference(t *testing.T, res *campaign.Result) {
	t.Helper()
	ref, got := *referenceResult(t), *res
	stripVolatile(&ref)
	stripVolatile(&got)
	if !reflect.DeepEqual(&ref, &got) {
		t.Error("chaos run result differs from the single-process reference")
	}
}

// TestChaosWorkerKilledMidCell kills one worker while it is simulating
// (its context expires mid-drive, closing the connection); the
// coordinator must re-queue its leases to the surviving worker and the
// final tables must equal the single-process run.
func TestChaosWorkerKilledMidCell(t *testing.T) {
	skipInShort(t)
	reg := telemetry.NewRegistry()
	coord := &Coordinator{Spec: testSpec(), Registry: reg}
	addr, done := startCoordinator(t, coord, nil)

	// The victim dies ~120 ms in: long enough to hold a lease, shorter
	// than any cell's simulation.
	victimCtx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	defer cancel()
	victim := runWorker(victimCtx, &Worker{ID: "victim", Capacity: 2}, addr)
	survivor := runWorker(context.Background(), &Worker{ID: "survivor", Capacity: 2}, addr)

	cr := waitCoord(t, done, 2*time.Minute)
	if cr.err != nil {
		t.Fatalf("coordinator: %v", cr.err)
	}
	if err := <-victim; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("victim should die of its context, got %v", err)
	}
	if err := <-survivor; err != nil {
		t.Fatalf("survivor: %v", err)
	}
	assertEqualToReference(t, cr.res)

	prom := promDump(t, reg)
	if !strings.Contains(prom, `event="requeued"`) {
		t.Error("worker death did not re-queue any lease (victim died too early to matter?)")
	}
}

// TestChaosWorkerKilledTwice kills a worker holding every cell, then a
// second one holding every requeued cell: each victim's capacity covers
// the plan, and it withholds its results so its leases stay open until
// it dies. A survivor then runs the campaign, which must equal the
// single-process run and match the distributed-equivalence golden, and
// every cell must have been requeued exactly twice.
func TestChaosWorkerKilledTwice(t *testing.T) {
	skipInShort(t)
	plan, err := testSpec().BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	cells := len(plan.Cells)
	reg := telemetry.NewRegistry()
	coord := &Coordinator{Spec: testSpec(), Registry: reg}
	addr, done := startCoordinator(t, coord, nil)

	for _, id := range []string{"victim-1", "victim-2"} {
		wreg := telemetry.NewRegistry()
		leased := newWorkerInstruments(wreg).Leased
		ctx, cancel := context.WithCancel(context.Background())
		victim := runWorker(ctx, &Worker{
			ID: id, Capacity: cells, Registry: wreg,
			resultHook: func(*msg) []*msg { return nil },
		}, addr)
		for deadline := time.Now().Add(time.Minute); leased.Value() < uint64(cells); {
			if time.Now().After(deadline) {
				cancel()
				t.Fatalf("%s leased %d of %d cells", id, leased.Value(), cells)
			}
			time.Sleep(5 * time.Millisecond)
		}
		cancel()
		if err := <-victim; !errors.Is(err, context.Canceled) {
			t.Fatalf("%s should die of its context, got %v", id, err)
		}
	}
	survivor := runWorker(context.Background(), &Worker{ID: "survivor", Capacity: 2}, addr)

	cr := waitCoord(t, done, 2*time.Minute)
	if cr.err != nil {
		t.Fatalf("coordinator: %v", cr.err)
	}
	if err := <-survivor; err != nil {
		t.Fatalf("survivor: %v", err)
	}
	assertEqualToReference(t, cr.res)
	checkEquivalenceGolden(t, equivalenceGolden{Digest: PlanDigest(plan), Fingerprints: fingerprints(t, cr.res)})

	prom := promDump(t, reg)
	if want := fmt.Sprintf(`campaignd_cells_total{event="requeued"} %d`, 2*cells); !strings.Contains(prom, want) {
		t.Errorf("want %s, got:\n%s", want, grepLine(prom, `event="requeued"`))
	}
}

// TestChaosCoordinatorKilledAndResumed kills the coordinator twice,
// each time tearing the journal with a half-written line as a crash
// mid-append would: after 2 journaled cells, then after 2 more. A third
// coordinator with fresh workers runs only the remaining cells, and its
// report is byte-identical to the single-process run and matches the
// distributed-equivalence golden.
func TestChaosCoordinatorKilledAndResumed(t *testing.T) {
	skipInShort(t)
	journal := filepath.Join(t.TempDir(), "j.jsonl")
	for range 2 {
		haltAfter(t, journal, 2)
		f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"cell":5,"worker":"d1","elapsed_ns":12,"outco`); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Resume: fresh coordinator, same spec + journal, fresh workers.
	reg := telemetry.NewRegistry()
	last := &Coordinator{Spec: testSpec(), JournalPath: journal, Registry: reg}
	addr, done := startCoordinator(t, last, nil)
	w1 := runWorker(context.Background(), &Worker{ID: "w1", Capacity: 2}, addr)
	w2 := runWorker(context.Background(), &Worker{ID: "w2", Capacity: 2}, addr)

	cr := waitCoord(t, done, 2*time.Minute)
	if cr.err != nil {
		t.Fatalf("resumed coordinator: %v", cr.err)
	}
	if err := <-w1; err != nil {
		t.Fatalf("w1: %v", err)
	}
	if err := <-w2; err != nil {
		t.Fatalf("w2: %v", err)
	}
	assertReportMatchesReference(t, cr.res)
	plan, err := testSpec().BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalenceGolden(t, equivalenceGolden{Digest: PlanDigest(plan), Fingerprints: fingerprints(t, cr.res)})
	assertEqualToReference(t, cr.res)

	// The resume must have replayed exactly the journaled prefix.
	prom := promDump(t, reg)
	if !strings.Contains(prom, `campaignd_cells_total{event="restored"} 4`) {
		t.Errorf("want 4 restored cells on resume, got:\n%s", grepLine(prom, "restored"))
	}
	if !strings.Contains(prom, `campaignd_cells_total{event="done"} 2`) {
		t.Errorf("want 2 freshly run cells on resume, got:\n%s", grepLine(prom, `event="done"`))
	}
}

// haltAfter runs a coordinator on journal that dies after n cells are
// journaled in this run. Its workers are collateral damage: the dying
// coordinator closes their connections and they error out.
func haltAfter(t *testing.T, journal string, n int) {
	t.Helper()
	coord := &Coordinator{Spec: testSpec(), JournalPath: journal, haltAfterJournaled: n}
	addr, done := startCoordinator(t, coord, nil)
	doomed1 := runWorker(context.Background(), &Worker{ID: "d1", Capacity: 1}, addr)
	doomed2 := runWorker(context.Background(), &Worker{ID: "d2", Capacity: 1}, addr)

	cr := waitCoord(t, done, 2*time.Minute)
	if !errors.Is(cr.err, ErrHalted) {
		t.Fatalf("want ErrHalted from the killed coordinator, got %v", cr.err)
	}
	if err := <-doomed1; err == nil {
		t.Error("doomed worker 1 survived its coordinator")
	}
	if err := <-doomed2; err == nil {
		t.Error("doomed worker 2 survived its coordinator")
	}
}

// TestChaosSilentWorker: a worker that takes a lease and then sends
// nothing — hung, or cut off by a partition that leaves its socket
// open — is disconnected at WorkerTimeout, and its cell re-runs on a
// clean worker. The tables still equal the single-process run.
func TestChaosSilentWorker(t *testing.T) {
	skipInShort(t)
	reg := telemetry.NewRegistry()
	coord := &Coordinator{Spec: testSpec(), Registry: reg, WorkerTimeout: 2 * time.Second}
	addr, done := startCoordinator(t, coord, nil)

	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := newSender(silent).send(&msg{T: msgHello, Worker: "silent", Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	sr := transport.NewStreamReader(silent)
	for _, want := range []string{msgPlan, msgLease} {
		if m, err := readMsg(sr); err != nil || m.T != want {
			t.Fatalf("silent client: want %s, got %+v (%v)", want, m, err)
		}
	}
	clean := runWorker(context.Background(), &Worker{ID: "clean", Capacity: 1}, addr)
	assertConnClosed(t, silent)

	cr := waitCoord(t, done, 2*time.Minute)
	if cr.err != nil {
		t.Fatalf("coordinator: %v", cr.err)
	}
	if err := <-clean; err != nil {
		t.Fatalf("clean worker: %v", err)
	}
	assertEqualToReference(t, cr.res)

	prom := promDump(t, reg)
	for _, want := range []string{
		`campaignd_cells_total{event="requeued"} 1`,
		`campaignd_protocol_errors_total 0`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("want %s, got:\n%s", want, prom)
		}
	}
}

// TestChaosCellOutlastsWorkerTimeout: a cell that runs longer than
// WorkerTimeout does not cost its worker the connection, because the
// worker heartbeats at a twelfth of the timeout the plan carries. The
// hook holds the first result for three timeouts, so that cell's lease
// outlasts the timeout; the campaign must finish with no requeue.
func TestChaosCellOutlastsWorkerTimeout(t *testing.T) {
	skipInShort(t)
	// A disconnect needs a heartbeat to stall for 11/12 of this. Under
	// -race on a 2-CPU VM the longest silence the coordinator saw was
	// 112 ms: a stall of 29 ms past the 83 ms heartbeat period.
	const timeout = time.Second
	reg := telemetry.NewRegistry()
	coord := &Coordinator{Spec: testSpec(), Registry: reg, WorkerTimeout: timeout}
	addr, done := startCoordinator(t, coord, nil)

	var held atomic.Bool
	slow := &Worker{
		ID:       "slow",
		Capacity: 1,
		resultHook: func(m *msg) []*msg {
			if held.CompareAndSwap(false, true) {
				time.Sleep(3 * timeout)
			}
			return []*msg{m}
		},
	}
	w := runWorker(context.Background(), slow, addr)

	cr := waitCoord(t, done, 2*time.Minute)
	if cr.err != nil {
		t.Fatalf("coordinator: %v", cr.err)
	}
	if err := <-w; err != nil {
		t.Fatalf("slow worker: %v", err)
	}
	assertEqualToReference(t, cr.res)

	prom := promDump(t, reg)
	if want := `campaignd_cells_total{event="requeued"} 0`; !strings.Contains(prom, want) {
		t.Errorf("want %s, got:\n%s", want, grepLine(prom, `event="requeued"`))
	}
}

// TestChaosCellFailsOnWorker: a cell that fails on a worker fails the
// campaign at once, with the error campaign.Run reports for the same
// Spec. A cell is a pure function of its seed, so re-running it
// elsewhere could only fail again. One capacity-1 worker runs the
// cells in plan order, so the first failure to arrive is the lowest
// failing cell, the one the in-process runner names.
func TestChaosCellFailsOnWorker(t *testing.T) {
	skipInShort(t)
	// rds.Run rejects a scenario without a timeout before it simulates,
	// so both of follow-vehicle's cells fail; the slalom's run first.
	// Follow-vehicle's 7 POIs and the slalom's 4 cover T5's budget.
	err := RegisterScenarioSet("broken", func() []*scenario.Scenario {
		broken := scenario.FollowVehicle()
		broken.Timeout = 0
		return []*scenario.Scenario{scenario.LaneChangeSlalom(), broken}
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	spec.ScenarioSet = "broken"
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	_, want := campaign.Run(cfg)
	if want == nil {
		t.Fatal("in-process campaign succeeded; the scenario set is not broken")
	}

	reg := telemetry.NewRegistry()
	coord := &Coordinator{Spec: spec, Registry: reg}
	addr, done := startCoordinator(t, coord, nil)
	w := runWorker(context.Background(), &Worker{ID: "w", Capacity: 1}, addr)

	cr := waitCoord(t, done, 2*time.Minute)
	if cr.err == nil || cr.err.Error() != want.Error() {
		t.Fatalf("distributed error:\n  %v\nwant the in-process error:\n  %v", cr.err, want)
	}
	// The coordinator tells the worker why before it disconnects: the
	// worker's error names the failed cell, not a bare EOF.
	werr := <-w
	if !errors.Is(werr, ErrAborted) || !strings.Contains(werr.Error(), want.Error()) {
		t.Fatalf("worker error:\n  %v\nwant ErrAborted naming the campaign error:\n  %v", werr, want)
	}
	prom := promDump(t, reg)
	for _, want := range []string{
		`campaignd_cells_total{event="errored"} 1`,
		`campaignd_cells_total{event="requeued"} 0`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("want %s, got:\n%s", want, prom)
		}
	}
}

// TestChaosDuplicatedResultFrame duplicates every result message from
// one worker: the duplicates must be counted and dropped (first write
// wins), never double-aggregated.
func TestChaosDuplicatedResultFrame(t *testing.T) {
	skipInShort(t)
	reg := telemetry.NewRegistry()
	coord := &Coordinator{Spec: testSpec(), Registry: reg}
	addr, done := startCoordinator(t, coord, nil)

	stutter := &Worker{
		ID:         "stutter",
		Capacity:   2,
		resultHook: func(m *msg) []*msg { return []*msg{m, m} },
	}
	w1 := runWorker(context.Background(), stutter, addr)
	w2 := runWorker(context.Background(), &Worker{ID: "clean", Capacity: 2}, addr)

	cr := waitCoord(t, done, 2*time.Minute)
	if cr.err != nil {
		t.Fatalf("coordinator: %v", cr.err)
	}
	if err := <-w1; err != nil {
		t.Fatalf("stutter worker: %v", err)
	}
	if err := <-w2; err != nil {
		t.Fatalf("clean worker: %v", err)
	}
	assertEqualToReference(t, cr.res)

	prom := promDump(t, reg)
	if !strings.Contains(prom, `event="duplicate"`) {
		t.Error("duplicated results were not counted as duplicates")
	}
	if !strings.Contains(prom, `campaignd_cells_total{event="done"} 6`) {
		t.Errorf("done count drifted under duplication:\n%s", grepLine(prom, `event="done"`))
	}
}
