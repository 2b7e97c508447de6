package campaign

import (
	"math"
	"sort"
	"time"

	"teledrive/internal/core"
	"teledrive/internal/faultinject"
	"teledrive/internal/metrics"
)

// sortedLabels returns the map's keys in sorted order, so that float
// accumulations over the map are reproducible (Go randomizes map
// iteration order between calls).
func sortedLabels[V any](m map[string]V) []string {
	labels := make([]string, 0, len(m))
	for label := range m {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	return labels
}

// TableII is the fault-injection summary (paper Table II): per subject,
// the number of faults of each type actually injected.
type TableII struct {
	Rows   []TableIIRow
	Totals map[faultinject.Condition]int
	Total  int
}

// TableIIRow is one subject's row.
type TableIIRow struct {
	Subject string
	Counts  map[faultinject.Condition]int
	Total   int
}

// BuildTableII tallies actual injections from the fault logs.
func (r *Result) BuildTableII() TableII {
	out := TableII{Totals: make(map[faultinject.Condition]int)}
	for _, sub := range r.Analysed() {
		row := TableIIRow{Subject: sub.Profile.Name, Counts: sub.InjectedCounts()}
		for _, c := range faultinject.FaultConditions() {
			row.Total += row.Counts[c]
			out.Totals[c] += row.Counts[c]
		}
		out.Total += row.Total
		out.Rows = append(out.Rows, row)
	}
	return out
}

// TTCCell is one Table III cell.
type TTCCell struct {
	Valid bool
	Res   metrics.TTCResult
}

// TableIIIRow is one subject's TTC row: the NFI (golden run) column plus
// the five fault-condition columns from the faulty run.
type TableIIIRow struct {
	Subject string
	Cells   map[string]TTCCell // key: condition label
	Missing bool               // lead-velocity recording lost (§VI-A)
}

// TableIII is the TTC statistics table.
type TableIII struct {
	Rows []TableIIIRow
}

// BuildTableIII merges per-scenario TTC results into per-subject rows.
// The NFI column comes from the golden runs; the fault columns from the
// faulty runs' condition spans.
func (r *Result) BuildTableIII() TableIII {
	var out TableIII
	for _, sub := range r.Analysed() {
		row := TableIIIRow{
			Subject: sub.Profile.Name,
			Cells:   make(map[string]TTCCell),
			Missing: sub.Missing.TTC,
		}
		merged := make(map[string]metrics.TTCResult)
		for _, run := range sub.Runs {
			// Merge in sorted label order: Merge's weighted average is
			// not associative in floating point, so map-order iteration
			// would make merged cells nondeterministic between calls.
			// Golden-run TTC (all of it counts as NFI).
			for _, label := range sortedLabels(run.Golden.Analysis.TTCByCondition) {
				merged["NFI"] = metrics.Merge(merged["NFI"], run.Golden.Analysis.TTCByCondition[label])
			}
			// Faulty-run TTC per condition; the faulty run's own NFI
			// spans are not a table column in the paper and are skipped.
			for _, label := range sortedLabels(run.Faulty.Analysis.TTCByCondition) {
				if label == "NFI" {
					continue
				}
				merged[label] = metrics.Merge(merged[label], run.Faulty.Analysis.TTCByCondition[label])
			}
		}
		for label, res := range merged {
			row.Cells[label] = TTCCell{Valid: res.Valid, Res: res}
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// SRRCell is one Table IV cell (rev/min). Present is false for the "-"
// cells (condition never injected); rows can also be masked entirely.
type SRRCell struct {
	Present bool
	Rate    float64
}

// TableIVRow is one subject's SRR row.
type TableIVRow struct {
	Subject string
	// NFI is the golden run whole-drive SRR; FI the faulty run's.
	NFI, FI SRRCell
	// PerCondition holds the five fault columns.
	PerCondition map[string]SRRCell
	// Avg is the exposure-weighted average over the injected faults
	// (the paper's "Avg" column).
	Avg SRRCell
	// MissingGolden / MissingFaulty mask cells per §VI-A ("x").
	MissingGolden, MissingFaulty bool
}

// TableIV is the SRR table.
type TableIV struct {
	Rows []TableIVRow
	// ColumnAvg aggregates each column over rows with data.
	ColumnAvg map[string]float64
}

// BuildTableIV merges per-scenario SRR into subject rows.
func (r *Result) BuildTableIV() TableIV {
	out := TableIV{ColumnAvg: make(map[string]float64)}
	colSum := make(map[string]float64)
	colN := make(map[string]int)

	for _, sub := range r.Analysed() {
		row := TableIVRow{
			Subject:       sub.Profile.Name,
			PerCondition:  make(map[string]SRRCell),
			MissingGolden: sub.Missing.SRRGolden,
			MissingFaulty: sub.Missing.SRRFaulty,
		}
		// Whole-run SRR, duration-weighted across scenarios.
		var goldenRevMin, goldenMin, faultyRevMin, faultyMin float64
		condRev := make(map[string]float64)
		condMin := make(map[string]float64)
		for _, run := range sub.Runs {
			gd := run.Golden.Analysis.Duration.Minutes()
			goldenRevMin += run.Golden.Analysis.SRRWholeRun * gd
			goldenMin += gd
			fd := run.Faulty.Analysis.Duration.Minutes()
			faultyRevMin += run.Faulty.Analysis.SRRWholeRun * fd
			faultyMin += fd
			for label, rate := range run.Faulty.Analysis.SRRByCondition {
				if label == "NFI" {
					continue
				}
				m := run.Faulty.Analysis.SRRExposure[label].Minutes()
				condRev[label] += rate * m
				condMin[label] += m
			}
		}
		if goldenMin > 0 && !row.MissingGolden {
			row.NFI = SRRCell{Present: true, Rate: goldenRevMin / goldenMin}
		}
		if faultyMin > 0 && !row.MissingFaulty {
			row.FI = SRRCell{Present: true, Rate: faultyRevMin / faultyMin}
		}
		if !row.MissingFaulty {
			// Iterate in sorted label order: float accumulation is not
			// associative, so map-order iteration would make the Avg
			// column nondeterministic at the bit level between calls.
			labels := make([]string, 0, len(condMin))
			for label := range condMin {
				labels = append(labels, label)
			}
			sort.Strings(labels)
			var avgRev, avgMin float64
			for _, label := range labels {
				m := condMin[label]
				if m <= 0 {
					continue
				}
				rate := condRev[label] / m
				row.PerCondition[label] = SRRCell{Present: true, Rate: rate}
				avgRev += condRev[label]
				avgMin += m
			}
			if avgMin > 0 {
				row.Avg = SRRCell{Present: true, Rate: avgRev / avgMin}
			}
		}
		out.Rows = append(out.Rows, row)

		if row.NFI.Present {
			colSum["NFI"] += row.NFI.Rate
			colN["NFI"]++
		}
		if row.FI.Present {
			colSum["FI"] += row.FI.Rate
			colN["FI"]++
		}
		for label, cell := range row.PerCondition {
			colSum[label] += cell.Rate
			colN[label]++
		}
		if row.Avg.Present {
			colSum["Avg"] += row.Avg.Rate
			colN["Avg"]++
		}
	}
	for label, sum := range colSum {
		if colN[label] > 0 {
			out.ColumnAvg[label] = sum / float64(colN[label])
		}
	}
	return out
}

// CollisionAnalysis reproduces §VI-E: how many subjects collided in the
// golden vs the faulty run, and which conditions were active at impact.
type CollisionAnalysis struct {
	SubjectsAnalysed      int
	GoldenCollided        int // subjects with ≥1 collision across golden runs
	FaultyCollided        int
	CrashConditions       []string // condition labels active at ≥1 crash
	CrashCountByCondition map[string]int
}

// BuildCollisionAnalysis aggregates collision outcomes.
func (r *Result) BuildCollisionAnalysis() CollisionAnalysis {
	out := CollisionAnalysis{CrashCountByCondition: make(map[string]int)}
	for _, sub := range r.Analysed() {
		out.SubjectsAnalysed++
		goldenHit, faultyHit := false, false
		for _, run := range sub.Runs {
			if run.Golden.Outcome.EgoCollisions > 0 {
				goldenHit = true
			}
			if run.Faulty.Outcome.EgoCollisions > 0 {
				faultyHit = true
			}
			for label, n := range run.Faulty.Analysis.CollisionsByCondition {
				out.CrashCountByCondition[label] += n
			}
		}
		if goldenHit {
			out.GoldenCollided++
		}
		if faultyHit {
			out.FaultyCollided++
		}
	}
	for label, n := range out.CrashCountByCondition {
		if n > 0 && label != "NFI" {
			out.CrashConditions = append(out.CrashConditions, label)
		}
	}
	sort.Strings(out.CrashConditions)
	return out
}

// Fig4Data carries the steering-profile comparison for one subject and
// scenario: the filtered wheel-angle series of the golden and faulty
// runs plus the task-segment traversal times.
type Fig4Data struct {
	Subject    string
	Scenario   string
	Golden     []metrics.Sample
	Faulty     []metrics.Sample
	GoldenTime time.Duration
	GoldenOK   bool
	FaultyTime time.Duration
	FaultyOK   bool
}

// Fig4AutoSubject returns the analysed subject with the largest
// faulty-vs-golden task-time inflation for the given scenario index —
// the natural choice for the Fig-4 illustration.
func (r *Result) Fig4AutoSubject(scenarioIdx int) (string, bool) {
	best := ""
	bestInflation := -1.0
	for _, sub := range r.Analysed() {
		if scenarioIdx >= len(sub.Runs) {
			continue
		}
		run := sub.Runs[scenarioIdx]
		if !run.Golden.Analysis.TaskTimeOK || !run.Faulty.Analysis.TaskTimeOK {
			continue
		}
		g := run.Golden.Analysis.TaskTime.Seconds()
		f := run.Faulty.Analysis.TaskTime.Seconds()
		if g <= 0 {
			continue
		}
		if infl := (f - g) / g; infl > bestInflation {
			bestInflation = infl
			best = sub.Profile.Name
		}
	}
	return best, best != ""
}

// BuildFig4 extracts the steering-profile figure for a subject and
// scenario index (the paper used the lane-change segment).
func (r *Result) BuildFig4(subject string, scenarioIdx int) (Fig4Data, bool) {
	for _, sub := range r.Subjects {
		if sub.Profile.Name != subject || scenarioIdx >= len(sub.Runs) {
			continue
		}
		run := sub.Runs[scenarioIdx]
		return Fig4Data{
			Subject:    subject,
			Scenario:   run.Scenario.Name,
			Golden:     run.Golden.Analysis.SteerFiltered,
			Faulty:     run.Faulty.Analysis.SteerFiltered,
			GoldenTime: run.Golden.Analysis.TaskTime,
			GoldenOK:   run.Golden.Analysis.TaskTimeOK,
			FaultyTime: run.Faulty.Analysis.TaskTime,
			FaultyOK:   run.Faulty.Analysis.TaskTimeOK,
		}, true
	}
	return Fig4Data{}, false
}

// CellCriticalityRow is one drive's run-level safety-criticality
// signals — the same quantities the adversarial search scores cells on
// (internal/search), surfaced per campaign cell so the dangerous-TTC
// exposure of any subject/scenario/run is visible in the report.
type CellCriticalityRow struct {
	Subject  string
	Scenario string
	// Kind is "golden" or "faulty".
	Kind string
	// TTCValid is false when the drive collected no gated TTC sample
	// (the table's "-" case).
	TTCValid bool
	// MinTTC is the drive's pooled minimum gated TTC, s.
	MinTTC float64
	// DangerousShare is the fraction of gated samples under the 6 s
	// threshold; DangerousTime the pooled exposure below it.
	DangerousShare  float64
	DangerousTime   time.Duration
	Collisions      int
	ControlsDropped uint64
}

// BuildCellCriticality lists every analysed drive's criticality signals
// in protocol order (subject, scenario, golden before faulty).
func (r *Result) BuildCellCriticality() []CellCriticalityRow {
	var out []CellCriticalityRow
	for _, sub := range r.Analysed() {
		for _, run := range sub.Runs {
			for _, cell := range []struct {
				kind string
				res  *core.Result
			}{{"golden", run.Golden}, {"faulty", run.Faulty}} {
				if cell.res == nil {
					continue
				}
				a := cell.res.Analysis
				row := CellCriticalityRow{
					Subject:         sub.Profile.Name,
					Scenario:        run.Scenario.Name,
					Kind:            cell.kind,
					DangerousShare:  a.DangerousTTCShare,
					DangerousTime:   a.DangerousTTCTime,
					Collisions:      a.EgoCollisions,
					ControlsDropped: cell.res.Outcome.ClientStats.ControlsDropped,
				}
				if !math.IsInf(a.MinTTC, 1) {
					row.TTCValid = true
					row.MinTTC = a.MinTTC
				}
				out = append(out, row)
			}
		}
	}
	return out
}
