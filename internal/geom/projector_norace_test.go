//go:build !race

package geom

import (
	"math/rand"
	"testing"
)

// TestProjectorWarmAllocs pins a warm Project at zero allocations, both
// when the neighbour list answers and when it is rebuilt: the list
// keeps its backing array across rebuilds.
func TestProjectorWarmAllocs(t *testing.T) {
	p := town5Reference()
	var qs []Vec2
	for s := 0.0; s < p.Length(); s += 0.3 {
		pose := p.PoseAt(s)
		qs = append(qs, pose.Pos.Add(pose.Forward().Perp().Scale(3.5)))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ { // teleports grow the list to its working size
		qs = append(qs, qs[rng.Intn(len(qs))])
	}
	pr := NewProjector(p)
	for _, q := range qs {
		pr.Project(q)
	}
	i := 0
	if n := testing.AllocsPerRun(len(qs), func() {
		pr.Project(qs[i%len(qs)])
		i++
	}); n != 0 {
		t.Fatalf("warm Project allocates %v objects per call, want 0", n)
	}
}
