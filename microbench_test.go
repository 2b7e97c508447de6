// Substrate micro-benchmarks: throughput of the building blocks the
// experiment harness is made of. These are conventional performance
// benchmarks (ns/op, allocs/op) rather than result reproductions.
package teledrive_test

import (
	"io"
	"testing"
	"time"

	"teledrive/internal/driver"
	"teledrive/internal/geom"
	"teledrive/internal/metrics"
	"teledrive/internal/netem"
	"teledrive/internal/rds"
	"teledrive/internal/scenario"
	"teledrive/internal/sensors"
	"teledrive/internal/simclock"
	"teledrive/internal/telemetry"
	"teledrive/internal/telemetry/obs"
	"teledrive/internal/trace"
	"teledrive/internal/transport"
	"teledrive/internal/vehicle"
	"teledrive/internal/world"
)

func BenchmarkNetemLink(b *testing.B) {
	clk := simclock.New()
	link := netem.NewLink("bench", clk, 1, func(netem.Packet) {})
	if err := link.AddRule(netem.Rule{
		Delay: 20 * time.Millisecond, Jitter: 5 * time.Millisecond, Loss: 0.02, Limit: 1 << 20,
	}); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		link.Send(payload)
		if i%64 == 0 {
			clk.Advance(time.Millisecond)
		}
	}
	clk.Advance(time.Minute)
}

func BenchmarkTransportRoundTrip(b *testing.B) {
	clk := simclock.New()
	received := 0
	conn := transport.Connect(clk, 1, transport.Options{Reliable: true},
		func([]byte, uint64, time.Duration) {},
		func([]byte, uint64, time.Duration) { received++ },
	)
	payload := make([]byte, 24000) // one video frame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := conn.A.Send(payload); err != nil {
			b.Fatal(err)
		}
		clk.Advance(36 * time.Millisecond)
	}
	if received == 0 {
		b.Fatal("nothing delivered")
	}
}

func BenchmarkWorldStep(b *testing.B) {
	built, err := scenario.FollowVehicle().Build()
	if err != nil {
		b.Fatal(err)
	}
	built.Ego.Plant.Apply(vehicle.Control{Throttle: 0.4})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		built.World.Step(0.02)
	}
}

func BenchmarkCameraCapture(b *testing.B) {
	built, err := scenario.FollowVehicle().Build()
	if err != nil {
		b.Fatal(err)
	}
	cam := sensors.NewCamera(built.World, built.Ego)
	// The production per-frame path (bridge server cameraTick): capture
	// into a reused view, marshal into a reused buffer.
	var view sensors.WorldView
	var frames sensors.FrameBuffer
	var head []byte
	var fill int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cam.CaptureInto(&view)
		head, fill = frames.Keyframe(0, view)
	}
	if _, err := sensors.UnmarshalWorldView(append(head[1:], make([]byte, fill)...)); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkFrameBufferKeyframe(b *testing.B) {
	built, err := scenario.FollowVehicle().Build()
	if err != nil {
		b.Fatal(err)
	}
	view := sensors.NewCamera(built.World, built.Ego).Capture()
	var frames sensors.FrameBuffer
	var head []byte
	var fill int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		head, fill = frames.Keyframe(0, view)
	}
	if _, err := sensors.UnmarshalWorldView(append(head[1:], make([]byte, fill)...)); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkNearestLane(b *testing.B) {
	m := world.Town5()
	loc := m.NewLaneLocator()
	// Query points walking along the road, as the lane-invasion sensor
	// produces them.
	pts := make([]geom.Vec2, 256)
	for i := range pts {
		pts[i] = m.Reference.PointAt(float64(i) * 2).Add(geom.V(0, 1.2))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loc.NearestLane(pts[i%len(pts)])
	}
}

func benchmarkDetectCollisions(b *testing.B, nActors int) {
	m := world.Town5()
	w := world.New(nil) // collisions only; lane detection exercised elsewhere
	for i := 0; i < nActors; i++ {
		rail, err := world.NewRail(m.Reference, float64(10+7*i), []world.ProfilePoint{{Station: 0, Speed: 6}}, 3)
		if err != nil {
			b.Fatal(err)
		}
		rail.SetLoop(true)
		if _, err := w.SpawnScripted(world.KindCar, "car", geom.V(4.7, 1.9), rail); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step(0.02)
	}
}

func BenchmarkDetectCollisions8(b *testing.B)  { benchmarkDetectCollisions(b, 8) }
func BenchmarkDetectCollisions32(b *testing.B) { benchmarkDetectCollisions(b, 32) }

func BenchmarkSRRCompute(b *testing.B) {
	cfg := metrics.DefaultSRRConfig()
	steer := make([]float64, int(cfg.SampleRate)*200) // a 200 s run
	for i := range steer {
		steer[i] = 0.02 * float64(i%50-25) / 25
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.ComputeSRR(steer, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDriverTick(b *testing.B) {
	clk := simclock.New()
	built, err := scenario.FollowVehicle().Build()
	if err != nil {
		b.Fatal(err)
	}
	prof, _ := driver.SubjectByName("T5")
	view := sensors.NewCamera(built.World, built.Ego).Capture()
	perc := staticPerception{view: view}
	drv, err := driver.New(clk, perc, driver.DefaultConfig(prof, built.Task))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drv.Tick(time.Duration(i) * 20 * time.Millisecond)
	}
}

type staticPerception struct{ view sensors.WorldView }

func (p staticPerception) Frame() (sensors.WorldView, bool) { return p.view, true }
func (p staticPerception) FrameAge() time.Duration          { return 36 * time.Millisecond }

// BenchmarkCellSetup pins the per-cell construction cost that the
// artifact cache + run arena eliminate. "cold" is the legacy full
// Build: road map, blended route, and world all from scratch. "shared"
// is the batched-execution path the campaign runner uses per cell: the
// immutable artifact (map + route) comes from the cache, the world is
// rebuilt out of a recycled arena, and only the cheap mutable half
// (actors, rails, task state) is constructed fresh.
func BenchmarkCellSetup(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := scenario.LaneChangeSlalom().Build(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shared", func(b *testing.B) {
		arts := scenario.NewArtifactCache()
		arena := world.NewArena()
		if _, err := arts.Get(scenario.LaneChangeSlalom()); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scn := scenario.LaneChangeSlalom()
			art, err := arts.Get(scn)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := scn.BuildWith(art, arena); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFullScenarioRun(b *testing.B) {
	prof, _ := driver.SubjectByName("T5")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := rds.Run(rds.BenchConfig{
			Scenario: scenario.LaneChangeSlalom(), Profile: prof, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if !out.Completed {
			b.Fatal("run did not complete")
		}
	}
}

// BenchmarkTelemetryObserver pins the telemetry hot path: one Tick and
// one Frame observation per iteration, the exact per-step cost a
// telemetry-enabled run adds to the session spine. The contract is
// 0 allocs/op and low double-digit ns/op.
func BenchmarkTelemetryObserver(b *testing.B) {
	o := obs.NewSessionObserver(telemetry.NewRegistry(), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := time.Duration(i) * 20 * time.Millisecond
		o.Tick(now)
		o.Frame(now, uint64(i), 36*time.Millisecond)
	}
}

// BenchmarkFullScenarioRunTelemetry is BenchmarkFullScenarioRun with
// the full telemetry stack attached (registry, session observer, netem
// and bridge instruments, JSONL event sink) — the before/after pair
// that pins telemetry's whole-run overhead. BENCH_PR5.json records
// both; the acceptance bound is within 3 % of the uninstrumented run.
func BenchmarkFullScenarioRunTelemetry(b *testing.B) {
	prof, _ := driver.SubjectByName("T5")
	reg := telemetry.NewRegistry()
	sink := telemetry.NewEventSink(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := rds.Run(rds.BenchConfig{
			Scenario: scenario.LaneChangeSlalom(), Profile: prof, Seed: int64(i),
			Metrics: reg, Events: sink,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !out.Completed {
			b.Fatal("run did not complete")
		}
	}
}

func BenchmarkPathProject(b *testing.B) {
	m := world.Town5()
	p := geom.V(500, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reference.Project(p)
	}
}

// BenchmarkProjectorTrack is the per-tick projection in steady state: a
// warm projector following an actor that drives 3.5 m (one lane) off
// the Town5 reference at 15 m/s, one query per 20 ms tick.
func BenchmarkProjectorTrack(b *testing.B) {
	ref := world.Town5().Reference
	var qs []geom.Vec2
	for s := 0.0; s < ref.Length(); s += 0.3 {
		pose := ref.PoseAt(s)
		qs = append(qs, pose.Pos.Add(pose.Forward().Perp().Scale(3.5)))
	}
	pr := geom.NewProjector(ref)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.Project(qs[i%len(qs)])
	}
}

// BenchmarkClockSameInstant is a transparent link's delivery in the
// clock: a zero-delay ScheduleTask fired by the next AdvanceTo, with 32
// future timers (physics, camera, operator, retransmission deadlines)
// pending beside it.
func BenchmarkClockSameInstant(b *testing.B) {
	clk := simclock.New()
	for i := 0; i < 32; i++ {
		clk.Schedule(time.Hour+time.Duration(i)*time.Millisecond, func(time.Duration) {})
	}
	task := nopTask{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.ScheduleTask(0, task)
		clk.AdvanceTo(clk.Now() + time.Microsecond)
	}
}

type nopTask struct{}

func (nopTask) Fire(time.Duration) {}

// BenchmarkFingerprint digests the run log of one 20 s follow-vehicle
// drive, the log every drive fingerprints for its outcome. MB/s counts
// the encoded per-tick records (8 B per value), the bulk of the input.
func BenchmarkFingerprint(b *testing.B) {
	prof, _ := driver.SubjectByName("T5")
	scn := scenario.FollowVehicle()
	scn.Timeout = 20 * time.Second
	out, err := rds.Run(rds.BenchConfig{Scenario: scn, Profile: prof, Seed: 1000})
	if err != nil {
		b.Fatal(err)
	}
	if len(out.Log.Ego) == 0 {
		b.Fatal("empty run log")
	}
	b.SetBytes(int64(8 * (17*len(out.Log.Ego) + 13*len(out.Log.Others))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.Fingerprint(out.Log)
	}
}
