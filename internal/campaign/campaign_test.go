package campaign

import (
	"math/rand"
	"testing"

	"teledrive/internal/driver"
	"teledrive/internal/faultinject"
	"teledrive/internal/scenario"
)

func TestPaperFaultBudgetsMatchTableII(t *testing.T) {
	budgets := PaperFaultBudgets()
	// Row totals from Table II.
	wantTotals := map[string]int{
		"T1": 10, "T2": 12, "T3": 13, "T4": 11, "T5": 10, "T6": 12,
		"T8": 13, "T9": 12, "T10": 14, "T11": 13, "T12": 14,
	}
	grand := 0
	for name, want := range wantTotals {
		b, ok := budgets[name]
		if !ok {
			t.Fatalf("budget for %s missing", name)
		}
		if got := b.Total(); got != want {
			t.Errorf("%s total = %d, want %d", name, got, want)
		}
		grand += b.Total()
	}
	if grand != 134 {
		t.Fatalf("grand total = %d, want 134", grand)
	}
	// Column totals from Table II: 20, 30, 24, 31, 29.
	var c5, c25, c50, l2, l5 int
	for name := range wantTotals {
		b := budgets[name]
		c5 += b.Delay5
		c25 += b.Delay25
		c50 += b.Delay50
		l2 += b.Loss2
		l5 += b.Loss5
	}
	if c5 != 20 || c25 != 30 || c50 != 24 || l2 != 31 || l5 != 29 {
		t.Fatalf("column totals = %d/%d/%d/%d/%d, want 20/30/24/31/29", c5, c25, c50, l2, l5)
	}
	// T7 gets a budget too (drives but is excluded from tables).
	if _, ok := budgets["T7"]; !ok {
		t.Fatal("T7 budget missing")
	}
}

func TestRandomFaultBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		b := RandomFaultBudget(rng)
		if b.Total() < 10 || b.Total() > 14 {
			t.Fatalf("total = %d outside [10, 14]", b.Total())
		}
		for _, c := range faultinject.FaultConditions() {
			if b.Count(c) < 1 {
				t.Fatalf("condition %v has zero budget: %+v", c, b)
			}
		}
	}
}

func TestBuildAssignment(t *testing.T) {
	scns := scenario.TestScenarios()
	budget := FaultBudget{Delay5: 2, Delay25: 2, Delay50: 2, Loss2: 2, Loss5: 2}
	rng := rand.New(rand.NewSource(9))
	a, err := BuildAssignment(scns, budget, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.PerScenario) != len(scns) {
		t.Fatalf("per-scenario = %d", len(a.PerScenario))
	}
	total := 0
	for i, per := range a.PerScenario {
		if len(per) != len(scns[i].POIs) {
			t.Fatalf("scenario %d: %d assignments for %d POIs", i, len(per), len(scns[i].POIs))
		}
		total += len(per)
	}
	counts := a.Counts()
	for _, c := range faultinject.FaultConditions() {
		if counts[c] != budget.Count(c) {
			t.Fatalf("condition %v: assigned %d, budget %d", c, counts[c], budget.Count(c))
		}
	}
}

func TestBuildAssignmentRejectsOversizedBudget(t *testing.T) {
	scns := scenario.TestScenarios()
	budget := FaultBudget{Delay5: 100}
	if _, err := BuildAssignment(scns, budget, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("oversized budget accepted")
	}
}

func TestAssignmentsDifferAcrossSubjects(t *testing.T) {
	// §V-C: different subjects get different faults in the same
	// scenario.
	scns := scenario.TestScenarios()
	budget := PaperFaultBudgets()["T5"]
	rng := rand.New(rand.NewSource(4))
	a1, err := BuildAssignment(scns, budget, rng)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := BuildAssignment(scns, budget, rng)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a1.PerScenario {
		for j := range a1.PerScenario[i] {
			if a1.PerScenario[i][j] != a2.PerScenario[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("two draws produced identical assignments")
	}
}

func miniCampaign(t *testing.T, names ...string) *Result {
	t.Helper()
	var subs []driver.Profile
	for _, n := range names {
		p, ok := driver.SubjectByName(n)
		if !ok {
			t.Fatalf("unknown subject %s", n)
		}
		subs = append(subs, p)
	}
	res, err := Run(Config{Seed: 31, Subjects: subs, ApplyPaperExclusions: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCampaignRunsGoldenAndFaulty(t *testing.T) {
	res := miniCampaign(t, "T5", "T7")
	if len(res.Subjects) != 2 {
		t.Fatalf("subjects = %d", len(res.Subjects))
	}
	t5 := res.Subjects[0]
	if len(t5.Runs) != 3 {
		t.Fatalf("T5 runs = %d, want 3 scenarios", len(t5.Runs))
	}
	for _, run := range t5.Runs {
		if run.Golden.Outcome.Log.RunType != "golden" {
			t.Fatalf("golden run type = %q", run.Golden.Outcome.Log.RunType)
		}
		if run.Faulty.Outcome.Log.RunType != "faulty" {
			t.Fatalf("faulty run type = %q", run.Faulty.Outcome.Log.RunType)
		}
	}
	// T7 exclusion (§VI-A).
	t7 := res.Subjects[1]
	if !t7.Excluded || t7.ExcludeReason == "" {
		t.Fatalf("T7 not excluded: %+v", t7.Excluded)
	}
	analysed := res.Analysed()
	if len(analysed) != 1 || analysed[0].Profile.Name != "T5" {
		t.Fatalf("analysed = %d", len(analysed))
	}
}

func TestCampaignInjectsBudget(t *testing.T) {
	res := miniCampaign(t, "T5")
	sub := res.Subjects[0]
	counts := sub.InjectedCounts()
	total := 0
	for _, c := range faultinject.FaultConditions() {
		total += counts[c]
	}
	// T5's Table II row: 2+2+2+2+2 = 10 faults.
	if total != 10 {
		t.Fatalf("injected total = %d, want 10 (%v)", total, counts)
	}
	for _, c := range faultinject.FaultConditions() {
		if counts[c] != 2 {
			t.Fatalf("condition %v injected %d, want 2", c, counts[c])
		}
	}
}

func TestMissingDataMask(t *testing.T) {
	for name, want := range map[string]MissingData{
		"T1":  {TTC: true},
		"T3":  {TTC: true, SRRGolden: true},
		"T8":  {SRRFaulty: true},
		"T10": {SRRFaulty: true},
		"T12": {SRRFaulty: true},
		"T5":  {},
	} {
		if got := paperMissing(name); got != want {
			t.Errorf("paperMissing(%s) = %+v, want %+v", name, got, want)
		}
	}
}

func TestTableIIFromMiniCampaign(t *testing.T) {
	res := miniCampaign(t, "T5")
	t2 := res.BuildTableII()
	if len(t2.Rows) != 1 || t2.Rows[0].Subject != "T5" {
		t.Fatalf("rows = %+v", t2.Rows)
	}
	if t2.Total != 10 {
		t.Fatalf("total = %d", t2.Total)
	}
}

func TestTablesFromMiniCampaign(t *testing.T) {
	res := miniCampaign(t, "T5", "T10")
	t3 := res.BuildTableIII()
	if len(t3.Rows) != 2 {
		t.Fatalf("TableIII rows = %d", len(t3.Rows))
	}
	for _, row := range t3.Rows {
		nfi, ok := row.Cells["NFI"]
		if !ok || !nfi.Valid {
			t.Fatalf("%s: NFI TTC missing", row.Subject)
		}
		if nfi.Res.Min <= 0 || nfi.Res.Min > nfi.Res.Avg || nfi.Res.Avg > nfi.Res.Max {
			t.Fatalf("%s: NFI TTC ordering broken: %+v", row.Subject, nfi.Res)
		}
	}
	t4 := res.BuildTableIV()
	for _, row := range t4.Rows {
		if row.Subject == "T10" {
			if !row.MissingFaulty {
				t.Fatal("T10 faulty SRR should be masked (§VI-A)")
			}
			if len(row.PerCondition) != 0 || row.FI.Present {
				t.Fatal("masked row still carries faulty cells")
			}
		}
		if row.Subject == "T5" {
			if !row.NFI.Present || !row.FI.Present {
				t.Fatalf("T5 row incomplete: %+v", row)
			}
		}
	}
	col := res.BuildCollisionAnalysis()
	if col.SubjectsAnalysed != 2 {
		t.Fatalf("analysed = %d", col.SubjectsAnalysed)
	}
	fig, ok := res.BuildFig4("T5", 1)
	if !ok || len(fig.Golden) == 0 || len(fig.Faulty) == 0 {
		t.Fatalf("Fig4 data missing: %v", ok)
	}
	if !fig.GoldenOK || !fig.FaultyOK {
		t.Fatalf("Fig4 task times missing: %+v", fig)
	}
}

// TestCampaignDeterminism runs one campaign twice and compares every
// drive's trace fingerprint, taken from its full log before the
// campaign dropped the per-tick series.
func TestCampaignDeterminism(t *testing.T) {
	a := miniCampaign(t, "T5")
	b := miniCampaign(t, "T5")
	ra, rb := a.Subjects[0].allResults(), b.Subjects[0].allResults()
	if len(ra) == 0 || len(ra) != len(rb) {
		t.Fatalf("drive counts: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		fa, fb := ra[i].Outcome.Fingerprint, rb[i].Outcome.Fingerprint
		if fa == "" {
			t.Fatalf("drive %d: empty Outcome.Fingerprint", i)
		}
		if fa != fb {
			t.Fatalf("campaigns diverge at drive %d: %s vs %s", i, fa, fb)
		}
	}
}

func TestCampaignRandomPlan(t *testing.T) {
	p, _ := driver.SubjectByName("T5")
	res, err := Run(Config{Seed: 8, Subjects: []driver.Profile{p}, Plan: PlanRandom})
	if err != nil {
		t.Fatal(err)
	}
	total := res.Subjects[0].Budget.Total()
	if total < 10 || total > 14 {
		t.Fatalf("random budget total = %d", total)
	}
}

func TestBuildSignificance(t *testing.T) {
	res := miniCampaign(t, "T5", "T6", "T9", "T11")
	sig := res.BuildSignificance()
	if sig.Subjects != 4 {
		t.Fatalf("subjects = %d", sig.Subjects)
	}
	if !sig.SRRTestsOK {
		t.Fatal("SRR tests did not run")
	}
	if sig.SRRWelch.P < 0 || sig.SRRWelch.P > 1 {
		t.Fatalf("p-value %v out of range", sig.SRRWelch.P)
	}
	if !sig.ReactionCorrOK || !sig.AnticipationCorrOK {
		t.Fatal("correlations did not run")
	}
	if sig.ReactionVsDegradation < -1 || sig.ReactionVsDegradation > 1 {
		t.Fatalf("rho out of range: %v", sig.ReactionVsDegradation)
	}
}

func TestFig4AutoSubject(t *testing.T) {
	res := miniCampaign(t, "T5", "T6")
	name, ok := res.Fig4AutoSubject(1)
	if !ok {
		t.Fatal("no auto subject found")
	}
	if name != "T5" && name != "T6" {
		t.Fatalf("auto subject = %q", name)
	}
	if _, ok := res.Fig4AutoSubject(99); ok {
		t.Fatal("out-of-range scenario index accepted")
	}
}
