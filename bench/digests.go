package main

// pinned holds the SHA-256 output digest of repetition 0 at each
// workload's default seed and full size. paper-campaign hashes the
// campaign report bytes, the same bytes `campaign -workers 2` prints
// after its two banner lines; adversarial-search hashes the search
// report, the bytes of `adversary -seed 7 -generations 3 -cells 8`;
// hub-fleet hashes the sessions' outcome digests, one per line in spec
// order. Served sessions are paced by the wall clock, so their outputs
// have no digest; their gate is that every session completes with no
// protocol error.
var pinned = map[string]string{
	"paper-campaign":     "ac5a6c0b92e804f021007ab4b41ce02d3ec8cdbf2d5765700ac55a857e075a4c",
	"adversarial-search": "9b7adf36e47e5007546ebe322c5aca6d6d42e0f8dcc74e65c506d92caafc7b13",
	"hub-fleet":          "42b9b32b63b938e9f6bae026152a7563b19582e0237f9ad85368d89ea7e3e180",
}
