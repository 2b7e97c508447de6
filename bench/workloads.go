package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"net"
	"slices"
	"sync"
	"time"

	"teledrive/internal/bridge"
	"teledrive/internal/campaign"
	"teledrive/internal/core"
	"teledrive/internal/driver"
	"teledrive/internal/hub"
	"teledrive/internal/rds"
	"teledrive/internal/report"
	"teledrive/internal/scenario"
	"teledrive/internal/search"
	"teledrive/internal/sensors"
	"teledrive/internal/simclock"
)

// workers is the width of every worker pool the bench drives: the
// 2-core reference host runs one simulation per core.
const workers = 2

// workload is one named input set. prepare builds repetition inputs
// from a seed (its set-up, timed as setup_s); the returned rep holds the
// timed operation and its untimed correctness check.
type workload struct {
	name string
	// seed is the default -seed; repetition 0 of it is pinned in
	// digests.go.
	seed int64
	// tail is the latency percentile reported as latency_ms_tail, chosen
	// so that a run of five repetitions has at least ten of its drives
	// (sessions) beyond it.
	tail float64
	// paced workloads run on the wall clock's schedule, so their host
	// time is not netted of steal (see runRep).
	paced   bool
	prepare func(e *env, seed int64) (*rep, error)
}

var workloads = []*workload{
	{name: "paper-campaign", seed: 4, tail: 95, prepare: preparePaper},
	{name: "adversarial-search", seed: 7, tail: 90, prepare: prepareSearch},
	{name: "hub-fleet", seed: 1000, tail: 95, prepare: prepareFleet},
	{name: "served-control-room", seed: 2000, tail: 99, paced: true, prepare: prepareServed},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// sizes fixes how much work one repetition does.
type sizes struct {
	subjects    int // paper-campaign subjects (0 = all twelve)
	generations int // adversarial-search generations
	cellsPerGen int
	fleet       int           // hub-fleet sessions
	fleetSim    time.Duration // simulated lifetime of each hub-fleet session
	served      int           // served-control-room sessions
	servedSim   time.Duration
}

// fullSizes is what the benchmark measures: every repetition takes a
// few seconds on the 2-core reference host, so a 30 s run holds several.
var fullSizes = sizes{
	generations: 3, cellsPerGen: 8,
	fleet: 256, fleetSim: 20 * time.Second,
	served: 256, servedSim: 4 * time.Second,
}

// rep is one repetition: body is timed, check (untimed) fills the
// outcome and verifies outputs, close releases what prepare opened.
type rep struct {
	body  func() error
	check func(o *repOut) error
	close func() error
}

// repOut is what a repetition's check reports.
type repOut struct {
	attempted, failed int
	simS              float64
	digest            string
	diag              map[string]float64 // workload-specific diagnostics
	problems          []string
}

func (o *repOut) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// env accumulates what one repetition's process measures. mu guards lat
// and station: served frame callbacks run on the station's read
// goroutine.
type env struct {
	traced bool
	size   sizes

	mu      sync.Mutex
	lat     []float64 // ms: drive host time, or frame lateness when served
	station stationTally

	probes []*probe // the current repetition's probes
	c      counts
	ticks  hist
	spans  map[string][]float64 // ms
}

// stationTally is the served workload's station-side view.
type stationTally struct {
	FramesReceived uint64 `json:"frames_received"`
	FramesStale    uint64 `json:"frames_stale"`
	OnFrame        hist   `json:"on_frame"` // host time the station spends per displayed frame
}

func (t *stationTally) add(o *stationTally) {
	t.FramesReceived += o.FramesReceived
	t.FramesStale += o.FramesStale
	t.OnFrame.merge(&o.OnFrame)
}

func (e *env) newProbe() *probe {
	p := &probe{traced: e.traced}
	e.probes = append(e.probes, p)
	return p
}

func (e *env) span(name string, d time.Duration) {
	e.spans[name] = append(e.spans[name], ms(d))
}

// flushProbes folds the repetition's probes into the run totals;
// latency takes each probe's wire→teardown host time as the drive's.
func (e *env) flushProbes(latency bool) {
	for _, p := range e.probes {
		e.c.add(p.c)
		e.ticks.merge(&p.ticks)
		if latency {
			e.lat = append(e.lat, p.hostMS)
		}
	}
	e.probes = nil
}

// drives folds executed cell results into the outcome: one attempt per
// drive, failed when its fault injection was refused.
func (e *env) drives(o *repOut, results []*core.Result) {
	for _, r := range results {
		o.attempted++
		if r.Outcome.FailedInjections > 0 {
			o.failed++
			o.problemf("drive %s/%s: %d failed fault injections", r.Outcome.Log.Subject, r.Outcome.Log.Scenario, r.Outcome.FailedInjections)
		}
		o.simS += simSeconds(r.Outcome.WallTicks)
		e.lat = append(e.lat, ms(r.Elapsed))
		e.c.add(outcomeCounts(r.Outcome))
	}
	e.flushProbes(false)
}

func simSeconds(ticks uint64) float64 {
	return float64(ticks) * bridge.PhysicsTick.Seconds()
}

// crossCheck re-runs one drive alone — sequential, no shared arena or
// artifact cache — and requires the pooled run to have produced the
// same outcome digest.
func crossCheck(o *repOut, what string, spec core.RunSpec, pooled string) error {
	ref, err := core.RunOne(spec)
	if err != nil {
		return fmt.Errorf("%s: reference run: %w", what, err)
	}
	if pooled != rds.OutcomeDigest(ref.Outcome) {
		o.failed++
		o.problemf("%s: pooled outcome differs from the sequential reference run", what)
	}
	return nil
}

func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// preparePaper plans the paper's campaign (PlanPaper, paper exclusions,
// 12 subjects × 3 scenarios × golden/faulty = 72 drives); the timed body
// is Plan.Execute and the report render.
//
//lint:allow wallclock spans time the bench's calls into the campaign layer
func preparePaper(e *env, seed int64) (*rep, error) {
	cfg := campaign.Config{Seed: seed, Plan: campaign.PlanPaper, ApplyPaperExclusions: true, Workers: workers}
	if e.size.subjects > 0 {
		cfg.Subjects = driver.Subjects()[:e.size.subjects]
	}
	t := time.Now()
	plan, err := campaign.BuildPlan(cfg)
	if err != nil {
		return nil, err
	}
	e.span("campaign.plan_ms", time.Since(t))
	// Execute runs copies of the cells' specs, so probes attached here
	// ride every drive.
	if e.traced {
		for i := range plan.Cells {
			e.newProbe().attach(&plan.Cells[i].Spec.Observers, &plan.Cells[i].Spec.Stack)
		}
	}

	var results []*core.Result
	sum := sha256.New()
	return &rep{
		body: func() error {
			res, err := plan.Execute()
			if err != nil {
				return err
			}
			t := time.Now()
			report.WriteCampaignReport(sum, res, "auto", 1)
			e.span("report.render_ms", time.Since(t))
			results = cellResults(plan, res)
			return nil
		},
		check: func(o *repOut) error {
			o.digest = hexSum(sum)
			e.drives(o, results)
			ref, err := campaign.BuildPlan(cfg)
			if err != nil {
				return err
			}
			k := int(uint64(seed) % uint64(len(ref.Cells)))
			return crossCheck(o, fmt.Sprintf("cell %d", k), ref.Cells[k].Spec, rds.OutcomeDigest(results[k].Outcome))
		},
	}, nil
}

// cellResults lists a campaign's drive results in plan cell order.
func cellResults(plan *campaign.Plan, res *campaign.Result) []*core.Result {
	out := make([]*core.Result, len(plan.Cells))
	for i, c := range plan.Cells {
		sub := &res.Subjects[c.Subject]
		switch c.Kind {
		case campaign.CellTraining:
			out[i] = sub.Training
		case campaign.CellGolden:
			out[i] = sub.Runs[c.Scenario].Golden
		case campaign.CellFaulty:
			out[i] = sub.Runs[c.Scenario].Faulty
		default:
			panic(fmt.Sprintf("bench: unknown campaign cell kind %v", c.Kind))
		}
	}
	return out
}

// benchEvaluator mirrors search.SimEvaluator.Evaluate — the same
// BuildSpec and campaign.ExecuteCells calls over an artifact cache that
// lives for the whole search — with the bench's probes attached, because
// SimEvaluator does not expose its drives' results. It must track changes
// to SimEvaluator.Evaluate. Each generation's results fold into the
// repetition's outcome as they arrive, so only one generation of run
// logs is alive at a time, as in the evaluator it mirrors.
type benchEvaluator struct {
	e    *env
	sim  *search.SimEvaluator
	arts *scenario.ArtifactCache
	pick uint64 // selects the first generation's cross-checked cell

	out      repOut
	check    search.Request
	pooled   string // outcome digest of the cross-checked cell
	evalTime time.Duration
}

// Evaluate implements search.Evaluator.
//
//lint:allow wallclock spans time the bench's calls into the evaluation layer
func (b *benchEvaluator) Evaluate(reqs []search.Request, workers int) ([]search.Signals, error) {
	t := time.Now()
	defer func() { b.evalTime += time.Since(t) }()
	specs := make([]core.RunSpec, len(reqs))
	for i, req := range reqs {
		spec, err := b.sim.BuildSpec(req)
		if err != nil {
			return nil, err
		}
		if b.e.traced {
			b.e.newProbe().attach(&spec.Observers, &spec.Stack)
		}
		specs[i] = spec
	}
	results, failed, err := campaign.ExecuteCells(specs, workers, nil, b.arts)
	if err != nil {
		return nil, fmt.Errorf("search: cell %v: %w", reqs[failed].Point, err)
	}
	sigs := make([]search.Signals, len(results))
	for i, r := range results {
		sigs[i] = search.SignalsFrom(r)
	}
	if b.pooled == "" {
		k := int(b.pick % uint64(len(reqs)))
		b.check, b.pooled = reqs[k], rds.OutcomeDigest(results[k].Outcome)
	}
	b.e.drives(&b.out, results)
	return sigs, nil
}

// prepareSearch sets up one adversarial search over the default
// perturbation space with subject T3.
//
//lint:allow wallclock spans time the bench's calls into the search layer
func prepareSearch(e *env, seed int64) (*rep, error) {
	prof, ok := driver.SubjectByName("T3")
	if !ok {
		return nil, fmt.Errorf("unknown subject T3")
	}
	space := search.DefaultSpace()
	ev := &benchEvaluator{
		e: e, sim: search.NewSimEvaluator(space, prof, nil),
		arts: scenario.NewArtifactCache(), pick: uint64(seed),
	}
	opts := search.Options{
		Space: space, Seed: seed,
		Generations: e.size.generations, CellsPerGen: e.size.cellsPerGen,
		Epsilon: 0.2, Elites: 8, Workers: workers, Label: "sim/" + prof.Name,
	}

	sum := sha256.New()
	return &rep{
		body: func() error {
			t := time.Now()
			res, err := search.Run(opts, ev)
			if err != nil {
				return err
			}
			driverTime := time.Since(t) - ev.evalTime
			gens := time.Duration(opts.Generations)
			e.span("search.driver_ms_per_gen", driverTime/gens)
			e.span("search.evaluate_ms_per_gen", ev.evalTime/gens)
			return search.WriteReport(sum, res)
		},
		check: func(o *repOut) error {
			*o = ev.out
			o.digest = hexSum(sum)
			spec, err := ev.sim.BuildSpec(ev.check)
			if err != nil {
				return err
			}
			return crossCheck(o, fmt.Sprintf("search cell %v", ev.check.Point), spec, ev.pooled)
		},
	}, nil
}

// fleetSpec is one hub-fleet session: a delta-streamed follow-vehicle
// drive over a clean link.
func fleetSpec(prof driver.Profile, seed int64, sim time.Duration) hub.SessionSpec {
	scn := scenario.FollowVehicle()
	scn.Timeout = sim
	return hub.SessionSpec{BenchConfig: rds.BenchConfig{
		Scenario: scn, Profile: prof, Seed: seed, DeltaStreaming: true,
	}}
}

// prepareFleet builds a hub and its batch of session specs (seeds
// seed+j).
func prepareFleet(e *env, seed int64) (*rep, error) {
	prof, ok := driver.SubjectByName("T5")
	if !ok {
		return nil, fmt.Errorf("unknown subject T5")
	}
	h := hub.New(hub.Config{Workers: workers})
	specs := make([]hub.SessionSpec, e.size.fleet)
	for j := range specs {
		specs[j] = fleetSpec(prof, seed+int64(j), e.size.fleetSim)
		e.newProbe().attach(&specs[j].Observers, &specs[j].NewStack)
	}

	var results []hub.SessionResult
	return &rep{
		body: func() error {
			results = h.RunMany(specs)
			return nil
		},
		check: func(o *repOut) error {
			sum := sha256.New()
			for j, res := range results {
				o.attempted++
				if res.Err != nil {
					o.failed++
					o.problemf("session %d: %v", j, res.Err)
					continue
				}
				if res.Outcome.FailedInjections > 0 {
					o.failed++
					o.problemf("session %d: %d failed fault injections", j, res.Outcome.FailedInjections)
				}
				o.simS += simSeconds(res.Outcome.WallTicks)
				e.c.add(outcomeCounts(res.Outcome))
				fmt.Fprintln(sum, res.Digest)
			}
			e.flushProbes(true)
			o.digest = hexSum(sum)
			k := int(uint64(seed) % uint64(len(results)))
			ref := hub.New(hub.Config{Workers: 1}).Run(fleetSpec(prof, seed+int64(k), e.size.fleetSim))
			if ref.Err != nil {
				return fmt.Errorf("session %d: reference run: %w", k, ref.Err)
			}
			if ref.Digest != results[k].Digest {
				o.failed++
				o.problemf("session %d: hub-hosted outcome differs from the session run alone", k)
			}
			return nil
		},
	}, nil
}

// lateFrame is one 28 fps frame interval: a frame displayed later than
// this behind its schedule missed its display slot.
const lateFrame = sensors.DefaultFrameInterval

// servedSession is one paced hub session as the station drives it: the
// driver model ticks on every displayed frame and sends its control
// back over the shared connection.
type servedSession struct {
	ss     *hub.StationSession
	drv    *driver.Driver
	clk    *simclock.Clock
	joined time.Time
	end    *hub.SessionEnd
	ended  time.Time // when the station received the session's end

	// Guarded by env.mu: driver ticks, failed control sends, and each
	// displayed frame's host time since the join minus its simulated
	// capture time.
	ticks, sendErrors uint64
	offsets           []float64
}

// prepareServed starts a hub on a loopback listener and dials one
// station connection; the timed body joins every session and drives it
// to completion. A session's latency is its turnaround, from the join
// reply to the end report: its simulated duration plus whatever the hub
// fell behind its wall-clock schedule. Frame lateness and the joins'
// time are diagnostics, not metrics: on a shared host they follow the
// hypervisor's steal (on the 2-core reference host, ten runs' mean
// lateness ranged from 1.4 to 17 ms and their joins from 0.12 to 0.36 s
// as steal went from 0.5% to 19.5%), so no bound could hold them.
//
//lint:allow wallclock the served workload measures frame lateness in host time: the hub paces sessions to the wall clock
func prepareServed(e *env, seed int64) (*rep, error) {
	scn := scenario.FollowVehicle()
	built, err := scn.Build() // the drivers' task: route and instructed speeds
	if err != nil {
		return nil, err
	}
	subjects := driver.Subjects()
	h := hub.New(hub.Config{Workers: workers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- h.Serve(ln) }()
	stop := func() error {
		h.Close()
		_ = ln.Close() // Serve reports the close as a clean return
		return <-served
	}
	st, err := hub.Dial(ln.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("%w (serve: %v)", err, stop())
	}

	sessions := make([]*servedSession, 0, e.size.served)
	var joining time.Duration
	return &rep{
		body: func() error {
			t0 := time.Now()
			for j := 0; j < e.size.served; j++ {
				t := time.Now()
				ss, err := st.Join(hub.JoinRequest{
					Scenario: scn.Name, Seed: seed + int64(j), Delta: true,
					DurationNS: int64(e.size.servedSim),
				})
				if err != nil {
					return fmt.Errorf("join %d: %w", j, err)
				}
				s := &servedSession{ss: ss, joined: time.Now(), clk: simclock.New()}
				e.span("hub.join_ms", s.joined.Sub(t))
				if s.drv, err = driver.New(s.clk, ss, driver.DefaultConfig(subjects[j%len(subjects)], built.Task)); err != nil {
					return err
				}
				ss.SetOnFrame(func(view sensors.WorldView) { e.onFrame(s, view) })
				sessions = append(sessions, s)
			}
			joining = time.Since(t0)
			// One waiter per session, so each end is timed when it arrives.
			var wg sync.WaitGroup
			for _, s := range sessions {
				wg.Add(1)
				go func() {
					defer wg.Done()
					s.end, _ = s.ss.Wait(e.size.servedSim + time.Minute)
					s.ended = time.Now()
				}()
			}
			wg.Wait()
			for _, s := range sessions {
				if s.end == nil {
					return fmt.Errorf("session %d did not end", s.ss.ID)
				}
			}
			return nil
		},
		check: func(o *repOut) error {
			e.mu.Lock()
			defer e.mu.Unlock()
			var late []float64
			var sent, missed float64
			for _, s := range sessions {
				o.attempted++
				stats := s.ss.Stats()
				if s.end.Reason != "completed" || stats.ProtocolErrors > 0 || s.sendErrors > 0 {
					o.failed++
					o.problemf("session %d ended %q with %d protocol errors and %d failed control sends", s.ss.ID, s.end.Reason, stats.ProtocolErrors, s.sendErrors)
				}
				o.simS += time.Duration(s.end.SimTimeNS).Seconds()
				e.c.add(counts{
					Msgs:          stats.FramesReceived + stats.DeltaResyncs + stats.Collisions + stats.LaneInvasions + stats.MetaReplies + stats.ControlsSent,
					Steps:         uint64(time.Duration(s.end.SimTimeNS) / bridge.PhysicsTick),
					Frames:        s.end.FramesSent + s.end.FramesDropped,
					FramesSent:    s.end.FramesSent,
					FramesDropped: s.end.FramesDropped,
					Deltas:        s.end.DeltasSent,
					DriverTicks:   s.ticks,
				})
				e.lat = append(e.lat, ms(s.ended.Sub(s.joined)))
				t := &e.station
				t.FramesReceived += stats.FramesReceived
				t.FramesStale += stats.FramesStale
				sent += float64(s.end.FramesSent)
				missed += float64(s.end.FramesSent) - float64(stats.FramesReceived) + float64(stats.FramesStale)
				if len(s.offsets) == 0 {
					o.failed++
					o.problemf("session %d displayed no frame", s.ss.ID)
					continue
				}
				base := slices.Min(s.offsets)
				for _, off := range s.offsets {
					late = append(late, off-base)
					if off-base > ms(lateFrame) {
						missed++
					}
				}
			}
			sorted := sortedCopy(late)
			o.diag = map[string]float64{
				"frame_lateness_ms_mean": mean(late),
				"frame_lateness_ms_p50":  percentile(sorted, 50),
				"frame_lateness_ms_p99":  percentile(sorted, 99),
				"late_frame_share":       ratio(missed, sent),
				"join_s":                 joining.Seconds(),
			}
			return nil
		},
		close: func() error {
			_ = st.Close() // ends the station's read loop; stop reports the hub side
			return stop()
		},
	}, nil
}

// onFrame runs on the station's read goroutine for every newly
// displayed frame: it records when the frame displayed relative to the
// hub's wall-clock schedule (join time + the frame's simulated capture
// time), ticks the session's driver and sends its control back. The
// check subtracts each session's earliest offset, so a frame's lateness
// is its delay beyond the session's best-delivered frame; that removes
// the join-to-first-tick gap the station cannot observe.
//
//lint:allow wallclock the served workload measures frame lateness in host time: the hub paces sessions to the wall clock
func (e *env) onFrame(s *servedSession, view sensors.WorldView) {
	t := time.Now()
	now := t.Sub(s.joined)
	offset := ms(now - view.SimTime)
	if now > s.clk.Now() {
		s.clk.AdvanceTo(now)
	}
	err := s.ss.SendControl(s.drv.Tick(now))
	busy := time.Since(t)
	e.mu.Lock()
	s.ticks++
	s.offsets = append(s.offsets, offset)
	e.station.OnFrame.add(busy)
	if err != nil {
		s.sendErrors++
	}
	e.mu.Unlock()
}
