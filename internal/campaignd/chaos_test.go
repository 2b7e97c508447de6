package campaignd

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"teledrive/internal/campaign"
	"teledrive/internal/telemetry"
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
	checkEquivalenceGolden(t, equivalenceGolden{Digest: PlanDigest(plan), Fingerprints: fingerprints(cr.res)})

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
	checkEquivalenceGolden(t, equivalenceGolden{Digest: PlanDigest(plan), Fingerprints: fingerprints(cr.res)})
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

// TestChaosDroppedResultFrame drops a worker's first result message on
// the floor (simulating a lost frame): the lease expires, the cell is
// re-queued and re-run, and the tables still equal the single-process
// run.
func TestChaosDroppedResultFrame(t *testing.T) {
	skipInShort(t)
	reg := telemetry.NewRegistry()
	coord := &Coordinator{
		Spec:     testSpec(),
		Registry: reg,
		// The dropped cell recovers via lease expiry: keep it short, but
		// longer than any single cell's simulation so healthy leases
		// never churn.
		LeaseTimeout: 2 * time.Second,
	}
	addr, done := startCoordinator(t, coord, nil)

	var dropped atomic.Bool
	lossy := &Worker{
		ID:       "lossy",
		Capacity: 1,
		// No heartbeats: a heartbeat would keep extending the lease of
		// the silently dropped cell forever.
		HeartbeatEvery: time.Hour,
		resultHook: func(m *msg) []*msg {
			if dropped.CompareAndSwap(false, true) {
				return nil // the frame vanishes
			}
			return []*msg{m}
		},
	}
	w1 := runWorker(context.Background(), lossy, addr)
	w2 := runWorker(context.Background(), &Worker{ID: "clean", Capacity: 1, HeartbeatEvery: time.Hour}, addr)

	cr := waitCoord(t, done, 2*time.Minute)
	if cr.err != nil {
		t.Fatalf("coordinator: %v", cr.err)
	}
	if err := <-w1; err != nil {
		t.Fatalf("lossy worker: %v", err)
	}
	if err := <-w2; err != nil {
		t.Fatalf("clean worker: %v", err)
	}
	if !dropped.Load() {
		t.Fatal("hook never dropped a result; the test exercised nothing")
	}
	assertEqualToReference(t, cr.res)

	prom := promDump(t, reg)
	if !strings.Contains(prom, `event="requeued"`) {
		t.Error("dropped result did not force a re-queue")
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
