package session

import (
	"teledrive/internal/trace"
	"teledrive/internal/transport"
	"teledrive/internal/world"
)

// RunScratch is one campaign worker's reusable run arena: everything a
// drive allocates that the next drive can recycle. A worker owns exactly
// one RunScratch and threads it through every cell it executes (via
// rds.BenchConfig.Scratch); Reset between runs retains all capacity, so
// in steady state the per-cell cost is construction and simulation, not
// garbage.
//
//   - Pools feeds the transport endpoints and netem links: wire and
//     payload buffers, segment records, reassembly state. It reaches the
//     stack through transport.Options.Pools; without a scratch each
//     drive gets a fresh set, recycled only within the drive.
//   - World recycles the world's actor slab, id index, and detection
//     scratch (world.Arena).
//   - Log is the telemetry RunLog, its record slices reused at capacity.
//
// RunScratch is not safe for concurrent use: never share one between
// concurrently executing cells. Bit-identity is unaffected by reuse —
// the pooled-fingerprint CI stage drives every canonical cell twice
// through one scratch and checks both runs against the goldens.
type RunScratch struct {
	Pools *transport.Pools
	World *world.Arena
	Log   trace.RunLog
}

// NewRunScratch returns an empty arena.
func NewRunScratch() *RunScratch {
	return &RunScratch{
		Pools: transport.NewPools(),
		World: world.NewArena(),
	}
}

// Reset prepares the arena for the next run, retaining every allocation.
// The previous run's Log contents become invalid. Reset performs no
// allocations (pinned by a steady-state test).
func (s *RunScratch) Reset() {
	s.Log.Reset()
	// Pools and World recycle implicitly: freed buffers stay in their
	// freelists, and the world arena resets in place on its next
	// NewWorld. Nothing to clear here — a run returns its storage as it
	// ends (acks recycle segments, the arena owns the world).
}
