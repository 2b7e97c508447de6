package validity

import (
	"testing"
	"time"

	"teledrive/internal/driver"
	"teledrive/internal/netem"
)

func TestDrivabilityString(t *testing.T) {
	names := map[Drivability]string{
		DrivOK: "ok", DrivDegraded: "degraded",
		DrivDifficult: "difficult", DrivImpossible: "impossible",
	}
	for d, want := range names {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q", d, got)
		}
	}
	if Drivability(42).String() == "" {
		t.Fatal("unknown grade should render")
	}
}

func TestClassify(t *testing.T) {
	base := Point{Completed: true, SRR: 5, MeanSpeed: 9, MeanAbsLateral: 0.02}
	cases := []struct {
		name string
		p    Point
		want Drivability
	}{
		{"clean", Point{Completed: true, SRR: 5, MeanSpeed: 9, MeanAbsLateral: 0.02}, DrivOK},
		{"timeout", Point{Completed: false}, DrivImpossible},
		{"many crashes", Point{Completed: true, Collisions: 2}, DrivImpossible},
		{"one crash", Point{Completed: true, Collisions: 1, MeanSpeed: 9}, DrivDifficult},
		{"SRR tripled", Point{Completed: true, SRR: 25, MeanSpeed: 9, MeanAbsLateral: 0.02}, DrivDifficult},
		{"crawling", Point{Completed: true, SRR: 5, MeanSpeed: 4, MeanAbsLateral: 0.02}, DrivDifficult},
		{"SRR elevated", Point{Completed: true, SRR: 11, MeanSpeed: 9, MeanAbsLateral: 0.02}, DrivDegraded},
		{"wandering", Point{Completed: true, SRR: 5, MeanSpeed: 9, MeanAbsLateral: 0.12}, DrivDegraded},
		{"slowed", Point{Completed: true, SRR: 5, MeanSpeed: 7, MeanAbsLateral: 0.02}, DrivDegraded},
		{"departures", Point{Completed: true, SRR: 5, MeanSpeed: 9, MeanAbsLateral: 0.02, LaneDepartures: 1}, DrivDegraded},
	}
	for _, c := range cases {
		if got := Classify(c.p, base); got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestGradesMonotonicOrder(t *testing.T) {
	if !(DrivOK < DrivDegraded && DrivDegraded < DrivDifficult && DrivDifficult < DrivImpossible) {
		t.Fatal("grade ordering broken")
	}
}

func TestEnvironments(t *testing.T) {
	prof, _ := driver.SubjectByName("T5")
	sim := Simulator(prof)
	if sim.Name != "simulator" || !sim.Transport.Reliable {
		t.Fatalf("simulator env: %+v", sim)
	}
	mv := ModelVehicle()
	if mv.Name != "model-vehicle" || mv.Transport.Reliable {
		t.Fatalf("model-vehicle env must use the datagram link: %+v", mv)
	}
	if mv.DriverConfig == nil || mv.DriverConfig.Wheelbase >= 1 {
		t.Fatalf("model-vehicle driver config not scaled: %+v", mv.DriverConfig)
	}
}

func TestPaperMagnitudes(t *testing.T) {
	if len(PaperDelays()) != 5 || PaperDelays()[4] != 200*time.Millisecond {
		t.Fatalf("delays = %v", PaperDelays())
	}
	if len(PaperLosses()) != 5 || PaperLosses()[4] != 0.10 {
		t.Fatalf("losses = %v", PaperLosses())
	}
	if len(ModelDelays()) != 4 || ModelDelays()[1] != 20*time.Millisecond {
		t.Fatalf("model delays = %v", ModelDelays())
	}
}

func TestRunPointBaseline(t *testing.T) {
	prof, _ := driver.SubjectByName("T5")
	p, err := RunPoint(Simulator(prof), netem.Rule{}, "none", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Completed || p.Collisions != 0 {
		t.Fatalf("baseline not clean: %+v", p)
	}
	if p.MeanSpeed < 5 || p.SRR < 0 {
		t.Fatalf("baseline stats: %+v", p)
	}
}

func TestModelVehicleBaseline(t *testing.T) {
	p, err := RunPoint(ModelVehicle(), netem.Rule{}, "none", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Completed {
		t.Fatalf("model-vehicle baseline did not complete: %+v", p)
	}
	if p.MeanSpeed < 1 || p.MeanSpeed > 4 {
		t.Fatalf("model-vehicle speed %v outside RC-car range", p.MeanSpeed)
	}
	if p.MeanAbsLateral > 0.1 {
		t.Fatalf("model-vehicle baseline wanders: %v", p.MeanAbsLateral)
	}
}

func TestSweepShape(t *testing.T) {
	// The headline §VIII claim: the model vehicle degrades at a lower
	// delay than the simulator. Compare the grade at 100 ms.
	prof, _ := driver.SubjectByName("T5")
	simPts, err := Sweep(Simulator(prof), []time.Duration{100 * time.Millisecond}, nil, 17, 1)
	if err != nil {
		t.Fatal(err)
	}
	mvPts, err := Sweep(ModelVehicle(), []time.Duration{100 * time.Millisecond}, nil, 17, 1)
	if err != nil {
		t.Fatal(err)
	}
	simGrade := simPts[1].Grade
	mvGrade := mvPts[1].Grade
	if mvGrade < simGrade {
		t.Fatalf("model vehicle at 100ms (%v) should be at least as degraded as the simulator (%v)", mvGrade, simGrade)
	}
}

func TestGridSweepMonotoneAndComplete(t *testing.T) {
	prof, _ := driver.SubjectByName("T5")
	delays := []time.Duration{0, 50 * time.Millisecond, 150 * time.Millisecond}
	losses := []float64{0, 0.05}
	grid, err := GridSweep(Simulator(prof), delays, losses, 321, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != len(delays)*len(losses) {
		t.Fatalf("grid cells = %d", len(grid))
	}
	find := func(d time.Duration, l float64) GridPoint {
		for _, g := range grid {
			if g.Delay == d && g.Loss == l {
				return g
			}
		}
		t.Fatalf("cell %v/%v missing", d, l)
		return GridPoint{}
	}
	// The zero cell is the OK baseline.
	if g := find(0, 0); g.Point.Grade != DrivOK {
		t.Fatalf("baseline grade = %v", g.Point.Grade)
	}
	// Monotone along the delay axis at fixed loss.
	for _, l := range losses {
		prev := DrivOK
		for _, d := range delays {
			g := find(d, l).Point.Grade
			if g < prev {
				t.Fatalf("grade decreased along delay axis at %v/%v", d, l)
			}
			prev = g
		}
	}
	// A combination is at least as bad as its components.
	combo := find(150*time.Millisecond, 0.05).Point.Grade
	if combo < find(150*time.Millisecond, 0).Point.Grade || combo < find(0, 0.05).Point.Grade {
		t.Fatal("combined fault milder than a component")
	}
}

func TestSweepBothAxesAndMonotone(t *testing.T) {
	env := ModelVehicle()
	pts, err := Sweep(env,
		[]time.Duration{10 * time.Millisecond, 80 * time.Millisecond},
		[]float64{0.02, 0.08}, 55, 1)
	if err != nil {
		t.Fatal(err)
	}
	// baseline + 2 delays + 2 losses.
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Label != "none" || pts[0].Grade != DrivOK {
		t.Fatalf("baseline = %+v", pts[0])
	}
	// Monotone within each family.
	if pts[2].Grade < pts[1].Grade {
		t.Fatalf("delay grades not monotone: %v then %v", pts[1].Grade, pts[2].Grade)
	}
	if pts[4].Grade < pts[3].Grade {
		t.Fatalf("loss grades not monotone: %v then %v", pts[3].Grade, pts[4].Grade)
	}
	// The Point reports the injected magnitudes, not base-stacked ones.
	if pts[1].Rule.Delay != 10*time.Millisecond {
		t.Fatalf("injected delay misreported: %v", pts[1].Rule.Delay)
	}
	for _, p := range pts {
		if p.LaneWidth <= 0 {
			t.Fatalf("lane width missing: %+v", p)
		}
	}
}
