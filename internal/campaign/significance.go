package campaign

import (
	"teledrive/internal/stats"
)

// Significance extends the paper's descriptive tables with the
// statistical testing it lists as future work: does the faulty run
// differ significantly from the golden run, and does driver background
// correlate with robustness?
type Significance struct {
	// SRRGoldenVsFaulty compares each subject's whole-run SRR between
	// the golden and faulty runs (paired by subject, tested as two
	// samples with Mann–Whitney U and Welch's t).
	SRRWelch       stats.TTestResult
	SRRMannWhitney stats.UTestResult
	SRRTestsOK     bool

	// SpeedGoldenVsFaulty compares mean driving speeds.
	SpeedWelch   stats.TTestResult
	SpeedTestsOK bool

	// ReactionVsDegradation is the Spearman correlation between a
	// subject's reaction time and their faulty/golden SRR ratio —
	// slower perception should correlate with worse robustness.
	ReactionVsDegradation float64
	ReactionCorrOK        bool

	// AnticipationVsDegradation correlates anticipation skill (the
	// gaming-trained ability the questionnaire probes) with the same
	// robustness ratio; the expected sign is negative.
	AnticipationVsDegradation float64
	AnticipationCorrOK        bool

	Subjects int
}

// BuildSignificance runs the tests over the analysed subjects.
func (r *Result) BuildSignificance() Significance {
	var out Significance
	var goldenSRR, faultySRR, goldenSpeed, faultySpeed []float64
	var reaction, anticipation, ratio []float64
	for _, sub := range r.Analysed() {
		var g, f, gs, fs, gmin, fmin float64
		for _, run := range sub.Runs {
			gd := run.Golden.Analysis.Duration.Minutes()
			fd := run.Faulty.Analysis.Duration.Minutes()
			g += run.Golden.Analysis.SRRWholeRun * gd
			f += run.Faulty.Analysis.SRRWholeRun * fd
			gmin += gd
			fmin += fd
			gs += run.Golden.Analysis.SpeedStats.Mean
			fs += run.Faulty.Analysis.SpeedStats.Mean
		}
		if gmin <= 0 || fmin <= 0 {
			continue
		}
		g /= gmin
		f /= fmin
		n := float64(len(sub.Runs))
		goldenSRR = append(goldenSRR, g)
		faultySRR = append(faultySRR, f)
		goldenSpeed = append(goldenSpeed, gs/n)
		faultySpeed = append(faultySpeed, fs/n)
		if g > 0 {
			reaction = append(reaction, sub.Profile.ReactionTime.Seconds())
			anticipation = append(anticipation, sub.Profile.Anticipation)
			ratio = append(ratio, f/g)
		}
		out.Subjects++
	}

	if w, err := stats.WelchTTest(faultySRR, goldenSRR); err == nil {
		out.SRRWelch = w
		if u, err := stats.MannWhitneyU(faultySRR, goldenSRR); err == nil {
			out.SRRMannWhitney = u
			out.SRRTestsOK = true
		}
	}
	if w, err := stats.WelchTTest(faultySpeed, goldenSpeed); err == nil {
		out.SpeedWelch = w
		out.SpeedTestsOK = true
	}
	if rho, err := stats.Spearman(reaction, ratio); err == nil {
		out.ReactionVsDegradation = rho
		out.ReactionCorrOK = true
	}
	if rho, err := stats.Spearman(anticipation, ratio); err == nil {
		out.AnticipationVsDegradation = rho
		out.AnticipationCorrOK = true
	}
	return out
}
