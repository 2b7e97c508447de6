package campaignd

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"teledrive/internal/campaign"
	"teledrive/internal/core"
	"teledrive/internal/report"
	"teledrive/internal/scenario"
)

// shortScenarios mirrors the campaign runner tests: two short courses
// plus a slalom repeat so the POI count (4+3+4=11) fits the smaller
// Table II budgets. Registered as "short" so Specs can name it.
func shortScenarios() []*scenario.Scenario {
	return []*scenario.Scenario{
		scenario.LaneChangeSlalom(), scenario.Overtake(), scenario.LaneChangeSlalom(),
	}
}

func init() {
	if err := RegisterScenarioSet("short", shortScenarios); err != nil {
		panic(err)
	}
}

// testSpec is the battery's canonical small campaign: one subject,
// three short scenarios — 6 cells, a couple of seconds of wall clock.
func testSpec() Spec {
	return Spec{
		Seed:                 31,
		Subjects:             []string{"T5"},
		ScenarioSet:          "short",
		ApplyPaperExclusions: true,
	}
}

// referenceOnce caches the single-process reference run for testSpec():
// every equivalence assertion in the battery diffs against the same
// `campaign -workers 2` result. Its rendered report is taken at once,
// before any test strips the shared result's volatile fields.
var (
	referenceOnce sync.Once
	referenceRes  *campaign.Result
	referenceText []byte
	referenceErr  error
)

func referenceResult(t *testing.T) *campaign.Result {
	t.Helper()
	referenceOnce.Do(func() {
		cfg, err := testSpec().Config()
		if err != nil {
			referenceErr = err
			return
		}
		cfg.Workers = 2
		referenceRes, referenceErr = campaign.Run(cfg)
		if referenceErr == nil {
			var buf bytes.Buffer
			report.WriteCampaignReport(&buf, referenceRes, "auto", 1)
			referenceText = buf.Bytes()
		}
	})
	if referenceErr != nil {
		t.Fatalf("reference campaign: %v", referenceErr)
	}
	return referenceRes
}

// assertReportMatchesReference renders res and requires it to be
// byte-identical to the reference run's report.
func assertReportMatchesReference(t *testing.T, res *campaign.Result) {
	t.Helper()
	referenceResult(t)
	var got bytes.Buffer
	report.WriteCampaignReport(&got, res, "auto", 1)
	if !bytes.Equal(referenceText, got.Bytes()) {
		t.Errorf("rendered reports differ:\n--- in-process ---\n%s\n--- distributed ---\n%s", referenceText, got.String())
	}
}

// stripVolatile zeroes wall-clock fields and drops the func-carrying
// references (Config.Scenarios, Scenario.MapBuilder) so the remaining
// Result is pure data and reflect.DeepEqual-comparable — the same
// normalization the campaign package's own determinism tests use.
func stripVolatile(res *campaign.Result) {
	res.Elapsed = 0
	res.Config = campaign.Config{}
	for i := range res.Subjects {
		sub := &res.Subjects[i]
		if sub.Training != nil {
			sub.Training.Elapsed = 0
		}
		for j := range sub.Runs {
			sub.Runs[j].Scenario = nil
			if sub.Runs[j].Golden != nil {
				sub.Runs[j].Golden.Elapsed = 0
			}
			if sub.Runs[j].Faulty != nil {
				sub.Runs[j].Faulty.Elapsed = 0
			}
		}
	}
}

// fingerprints reduces a campaign result to one trace fingerprint per
// drive, keyed subject/scenario-index/kind: each cell's
// Outcome.Fingerprint, taken from the full log before the campaign
// dropped its per-tick series. An empty fingerprint fails the test.
// Call before stripVolatile.
func fingerprints(t *testing.T, res *campaign.Result) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, sub := range res.Subjects {
		for si, run := range sub.Runs {
			for kind, r := range map[string]*core.Result{"golden": run.Golden, "faulty": run.Faulty} {
				if r == nil {
					continue
				}
				key := fmt.Sprintf("%s/%d/%s", sub.Profile.Name, si, kind)
				if r.Outcome.Fingerprint == "" {
					t.Fatalf("%s: empty Outcome.Fingerprint", key)
				}
				out[key] = r.Outcome.Fingerprint
			}
		}
	}
	return out
}

// coordResult is what a backgrounded Coordinator.Run produced.
type coordResult struct {
	res *campaign.Result
	err error
}

// startCoordinator serves coord on an ephemeral localhost listener and
// runs it in the background. The returned channel delivers Run's result
// exactly once.
func startCoordinator(t *testing.T, coord *Coordinator, stop <-chan struct{}) (string, <-chan coordResult) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan coordResult, 1)
	go func() {
		res, err := coord.Run(stop, ln)
		done <- coordResult{res: res, err: err}
	}()
	return ln.Addr().String(), done
}

// runWorker runs one worker against addr in the background and reports
// its error on the returned channel.
func runWorker(ctx context.Context, w *Worker, addr string) <-chan error {
	errc := make(chan error, 1)
	go func() { errc <- w.Run(ctx, addr) }()
	return errc
}

// waitCoord bounds how long a test waits for the coordinator to finish.
func waitCoord(t *testing.T, done <-chan coordResult, timeout time.Duration) coordResult {
	t.Helper()
	select {
	case cr := <-done:
		return cr
	case <-time.After(timeout):
		t.Fatalf("coordinator did not finish within %v", timeout)
		return coordResult{}
	}
}

// skipInShort gates the localhost-TCP campaign battery out of -short
// runs: `make race` runs this package with -short so the tracker
// ledger, journal, and wire codec still race-test on every check,
// while the multi-second end-to-end campaigns stay in `make
// race-dist`.
func skipInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("end-to-end TCP campaign battery: run by make race-dist")
	}
}
