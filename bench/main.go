// Command bench is teledrive's benchmark: four workloads that exercise
// the paper's fault → stale frame → late driving → low TTC chain from
// the researcher's side (drives per host-second) and the operator's side
// (frame lateness at a fixed offered load), with end-to-end metrics for
// regression gating and a per-layer CPU/allocation budget that adds up
// to the end-to-end cost. See README.md.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bench -workload NAME [-seed N] [-seconds S] [-trace 0|1]
//	bench -compare OLD.jsonl NEW.jsonl
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Process-level limits: a run must end within runLimit, so the children
// it starts get what is left of it.
const runLimit = 170 * time.Second

// seedStride separates the input seeds of successive repetitions.
const seedStride = 7919

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: paper-campaign, adversarial-search, hub-fleet, served-control-room")
		seed    = fs.Int64("seed", 0, "input seed (default: the workload's pinned seed)")
		seconds = fs.Int("seconds", 30, "how long one run measures")
		trace   = fs.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run with per-layer metrics")
		compare = fs.Bool("compare", false, "compare two result files (OLD NEW) against BENCHMARK.json bounds")
		spec    = fs.String("spec", "BENCHMARK.json", "benchmark definition read by -compare")
		child   = fs.String("child", "", "internal: run one repetition in this process (untraced|traced)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs OLD and NEW result files")
			return 2
		}
		return runCompare(*spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
	if !seedSet {
		*seed = w.seed
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace %d: want 0 or 1\n", *trace)
		return 2
	}

	if *child != "" {
		cfg := childConfig{traced: *child == "traced", size: fullSizes}
		if *seed == w.seed {
			cfg.expect = pinned[w.name]
		}
		rep := runChild(w, *seed, cfg)
		if err := json.NewEncoder(stdout).Encode(rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	res, det, err := runParent(w, *seed, *seconds, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := printResult(stdout, res, det); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		for _, p := range det.Problems {
			fmt.Fprintln(stderr, "bench: FAIL:", p)
		}
		return 1
	}
	return 0
}

// result is the last stdout line; its four keys are fixed.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail is printed on the line before the result: every metric's
// spread, the digests, and diagnostics; -compare reads these lines.
type detail struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       int                `json:"trace"`
	Seconds     int                `json:"seconds"`
	Digests     []string           `json:"digests"`
	Metrics     map[string]dist    `json:"metrics"`
	Diagnostics map[string]float64 `json:"diagnostics,omitempty"`
	Problems    []string           `json:"problems,omitempty"`
}

func printResult(w io.Writer, res result, det detail) error {
	for _, v := range []any{det, res} {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
			return err
		}
	}
	return nil
}

// runParent runs the workload's repetitions until the time box is spent
// (at least minReps of them), each in a child process of its own, and
// turns their reports into the run's metrics. Repetition r draws its
// inputs from seed + r*seedStride.
//
// One process per repetition makes a run more repeatable on a shared
// host: part of how fast a process runs the same work is fixed when the
// process starts (where its memory and threads land), so a run in one
// process inherits a single draw of it, while a run of many processes
// samples it. In eight interleaved pairs of 20 s hub-fleet runs on the
// 2-core reference host, runs spread 26% (interquartile range over
// median) in one process and 6% in one process per repetition. The
// host's own load, which shifts over seconds to minutes, remains.
//
//lint:allow wallclock the parent time-boxes the run in host time
func runParent(w *workload, seed int64, seconds int, traced bool, stderr io.Writer) (result, detail, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	mode, minReps := "untraced", 3
	if traced {
		mode, minReps = "traced", 1 // each traced repetition runs its input twice
	}
	det := detail{Workload: w.name, Seed: seed, Seconds: seconds}
	steal0, total0 := hostTicks()
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	all := &childReport{}
	var rss, took []float64
	for r := 0; ; r++ {
		if r >= minReps {
			half := time.Duration(median(took) / 2 * float64(time.Second))
			if time.Now().Add(half).After(deadline) {
				break
			}
		}
		t := time.Now()
		ch, rssMB, err := spawn(ctx, w, seed+int64(r)*seedStride, mode, stderr)
		if err != nil {
			return result{}, det, err
		}
		took = append(took, time.Since(t).Seconds())
		rss = append(rss, rssMB)
		all.merge(ch)
		if len(ch.Problems) > 0 {
			break
		}
	}
	if traced {
		det.Trace = 1
		det.Metrics, det.Diagnostics = perLayer(all)
	} else {
		det.Metrics, det.Diagnostics = endToEnd(w, all, rss)
	}
	if steal1, total1 := hostTicks(); total1 > total0 {
		det.Diagnostics["host.steal_share"] = float64(steal1-steal0) / float64(total1-total0)
	}
	res, det := finish(det, all)
	return res, det, nil
}

// finish folds the repetitions' attempts, failures and problems into the
// result line.
func finish(det detail, ch *childReport) (result, detail) {
	res := result{Metrics: make(map[string]metric, len(det.Metrics))}
	for name, d := range det.Metrics {
		res.Metrics[name] = metric{Value: d.Value, Unit: d.Unit}
	}
	for _, r := range ch.Reps {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		det.Digests = append(det.Digests, r.Digest)
	}
	det.Problems = append(det.Problems, ch.Problems...)
	res.Correct = len(det.Problems) == 0 && res.Attempted > 0
	return res, det
}

// spawn re-executes this binary as a child running one repetition, and
// returns its report and max RSS.
func spawn(ctx context.Context, w *workload, seed int64, mode string, stderr io.Writer) (*childReport, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.CommandContext(ctx, self,
		"-child", mode, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, 0, fmt.Errorf("%s %s run exceeded %v", w.name, mode, runLimit)
		}
		return nil, 0, fmt.Errorf("%s %s child: %w", w.name, mode, err)
	}
	var ch childReport
	if err := json.Unmarshal(out.Bytes(), &ch); err != nil {
		return nil, 0, fmt.Errorf("%s %s child report: %w", w.name, mode, err)
	}
	rssMB := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &ch, rssMB, nil
}

// childConfig sizes one repetition.
type childConfig struct {
	// traced runs the input twice, untraced and traced, so tracing
	// overhead and digest agreement compare like with like.
	traced bool
	size   sizes
	expect string // pinned output digest; empty = unchecked
}

// childReport is what one repetition measured; the parent merges the
// reports of a run's repetitions.
type childReport struct {
	Reps     []repRecord `json:"reps"`
	Problems []string    `json:"problems,omitempty"`
	// Lat holds the untraced repetition's latency samples (ms): the host
	// time of each drive or served session.
	Lat []float64 `json:"latency_ms"`

	// Traced repetitions only.
	CPUNS  []int64 `json:"cpu_ns_by_layer,omitempty"`
	AllocB []int64 `json:"alloc_bytes_by_layer,omitempty"`
	AllocN []int64 `json:"alloc_objects_by_layer,omitempty"`
	Ticks  hist    `json:"tick_interval"`

	// Diagnostics for the traced run's detail line.
	Spans   map[string][]float64 `json:"spans_ms,omitempty"`
	Station stationTally         `json:"station"`
}

func (c *childReport) merge(o *childReport) {
	c.Reps = append(c.Reps, o.Reps...)
	c.Problems = append(c.Problems, o.Problems...)
	c.Lat = append(c.Lat, o.Lat...)
	c.CPUNS = addInts(c.CPUNS, o.CPUNS)
	c.AllocB = addInts(c.AllocB, o.AllocB)
	c.AllocN = addInts(c.AllocN, o.AllocN)
	c.Ticks.merge(&o.Ticks)
	for name, xs := range o.Spans {
		if c.Spans == nil {
			c.Spans = make(map[string][]float64)
		}
		c.Spans[name] = append(c.Spans[name], xs...)
	}
	c.Station.add(&o.Station)
}

func addInts(dst, src []int64) []int64 {
	if dst == nil && src != nil {
		dst = make([]int64, len(src))
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// repRecord is one run of an input: its set-up, its timed body, the
// body's process CPU time and allocation count, and the layer counters.
type repRecord struct {
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	SetupS    float64            `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	Steal     float64            `json:"steal_share"` // of the machine's CPU time over the body
	HostS     float64            `json:"host_s"`      // WallS net of steal (see runRep)
	CPUS      float64            `json:"cpu_s"`
	Mallocs   uint64             `json:"mallocs"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	SimS      float64            `json:"sim_s"`
	Digest    string             `json:"digest,omitempty"`
	LatMean   float64            `json:"latency_ms_mean"`
	LatTail   float64            `json:"latency_ms_tail"`
	Diag      map[string]float64 `json:"diag,omitempty"`
	Counts    counts             `json:"counts"`
}

// runChild runs one repetition: the input once, or, traced, both
// untraced and traced, in an order that alternates with the seed's
// parity (successive repetitions' seeds differ by an odd stride), so a
// drift of host speed within a process does not bias tracing overhead
// one way. Each set-up collects garbage first and then builds the input
// from the seed; a traced run profiles CPU and allocations around the
// timed body only.
func runChild(w *workload, seed int64, cfg childConfig) *childReport {
	e := &env{size: cfg.size, spans: make(map[string][]float64)}
	out := &childReport{}
	modes := []bool{false}
	if cfg.traced {
		modes = []bool{false, true}
		if seed&1 == 1 {
			modes = []bool{true, false}
		}
		out.CPUNS = make([]int64, len(layers))
		out.AllocB = make([]int64, len(layers))
		out.AllocN = make([]int64, len(layers))
	}
	first := ""
	for i, traced := range modes {
		rec, err := runRep(w, e, seed, traced, cfg, out)
		if err == nil {
			switch {
			case !traced && cfg.expect != "" && rec.Digest != cfg.expect:
				err = fmt.Errorf("digest %s, pinned %s", rec.Digest, cfg.expect)
			case i > 0 && rec.Digest != first:
				err = fmt.Errorf("traced and untraced digests differ: %s, %s", first, rec.Digest)
			}
			if err != nil {
				rec.Failed = rec.Attempted
			}
		}
		first = rec.Digest
		out.Reps = append(out.Reps, rec)
		if !traced {
			out.Lat = e.lat
		}
		if err != nil {
			out.Problems = append(out.Problems, fmt.Sprintf("seed %d (traced %v): %v", seed, traced, err))
			break
		}
	}
	out.Ticks = e.ticks
	out.Spans = e.spans
	out.Station = e.station
	return out
}

// setupRuns is how many times a repetition builds its input. Set-up
// takes from tens of microseconds to a few milliseconds, so one timing
// of it mostly measures the process's cold caches and any interruption
// that lands in it; the repetition reports the median of these timings
// and keeps the last input for its body.
const setupRuns = 11

// runRep runs the input once and records it.
//
//lint:allow wallclock the bench measures host time by design
func runRep(w *workload, e *env, seed int64, traced bool, cfg childConfig, out *childReport) (repRecord, error) {
	rec := repRecord{Seed: seed, Traced: traced}
	e.traced, e.c, e.lat = traced, counts{}, nil
	closeRep := func(rp *rep) {
		if rp.close == nil {
			return
		}
		if err := rp.close(); err != nil {
			out.Problems = append(out.Problems, fmt.Sprintf("seed %d: close: %v", seed, err))
		}
	}
	var rp *rep
	var err error
	setups := make([]float64, setupRuns)
	for i := range setups {
		if rp != nil {
			closeRep(rp)
		}
		e.probes = nil
		runtime.GC()
		began := time.Now()
		if rp, err = w.prepare(e, seed); err != nil {
			return rec, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = time.Since(began).Seconds()
	}
	defer closeRep(rp)
	rec.SetupS = median(setups)
	runtime.GC()

	var objBefore, bytesBefore []int64
	var cpuProf bytes.Buffer
	if traced {
		if objBefore, bytesBefore, err = allocsByLayer(); err != nil {
			return rec, err
		}
		if err := pprof.StartCPUProfile(&cpuProf); err != nil {
			return rec, err
		}
	}
	cpu0, mallocs0 := cpuTime(), mallocs()
	steal0, ticks0 := hostTicks()
	t := time.Now()
	bodyErr := rp.body()
	rec.WallS = time.Since(t).Seconds()
	rec.CPUS = (cpuTime() - cpu0).Seconds()
	rec.Mallocs = mallocs() - mallocs0
	if steal1, ticks1 := hostTicks(); ticks1 > ticks0 {
		rec.Steal = float64(steal1-steal0) / float64(ticks1-ticks0)
	}
	// On a shared virtual machine the hypervisor takes the CPUs away for
	// a share of the time (steal), and that share moves from 0 to over
	// 30% within minutes. A batch workload keeps every CPU busy, so the
	// time its CPUs actually ran is its wall time net of that share; its
	// rates and drive times use that host time. A paced workload's wall
	// time is its schedule's, so it stays as measured.
	net := 1 - rec.Steal
	if w.paced {
		net = 1
	}
	rec.HostS = rec.WallS * net
	if traced {
		pprof.StopCPUProfile()
		cpu, err := byLayer(cpuProf.Bytes(), 1)
		if err != nil {
			return rec, err
		}
		objAfter, bytesAfter, err := allocsByLayer()
		if err != nil {
			return rec, err
		}
		for i := range layers {
			out.CPUNS[i] += cpu[i]
			out.AllocN[i] += objAfter[i] - objBefore[i]
			out.AllocB[i] += bytesAfter[i] - bytesBefore[i]
		}
	}
	if bodyErr != nil {
		return rec, bodyErr
	}

	var o repOut
	err = rp.check(&o)
	rec.Attempted, rec.Failed, rec.SimS, rec.Digest = o.attempted, o.failed, o.simS, o.digest
	rec.Diag = o.diag
	rec.Counts = e.c
	for i := range e.lat {
		e.lat[i] *= net
	}
	rec.LatMean, rec.LatTail = mean(e.lat), percentile(sortedCopy(e.lat), w.tail)
	out.Problems = append(out.Problems, o.problems...)
	return rec, err
}

// allocsByLayer reads the cumulative allocation profile (objects and
// bytes by layer, as the runtime's sampling estimates them) after a
// collection, so it covers everything allocated so far.
func allocsByLayer() (objects, size []int64, err error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, nil, err
	}
	if objects, err = byLayer(buf.Bytes(), 0); err != nil {
		return nil, nil, err
	}
	size, err = byLayer(buf.Bytes(), 1)
	return objects, size, err
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks reads the host's CPU time counters, in clock ticks, from the
// first line of /proc/stat: the time the hypervisor gave this machine's
// CPUs to other guests (steal), and all of it. A run's steal share says
// how much of its wall time the host took away; zeros where there is no
// /proc/stat.
func hostTicks() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(raw, []byte("\n"))
	// user nice system idle iowait irq softirq steal [guest guest_nice,
	// which user and nice already include]
	for i, f := range bytes.Fields(line)[1:] {
		if i > 7 {
			break
		}
		v, err := strconv.ParseUint(string(f), 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}
