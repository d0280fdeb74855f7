package transparentedge_test

import (
	"testing"

	edge "transparentedge"
)

// TestReplayAllocsPerRequestRegression pins both replay entry points'
// steady-state allocation rate below ten per request (DESIGN.md §15),
// measured with testing.AllocsPerRun: the single-site replay and the
// sharded multi-region replay at one and two shards. Comparing two trace
// sizes cancels the per-run fixed cost (topology construction, trace
// generation, the warm-up deployments), so the delta is pure steady-state
// path. The sizes differ by scenario: the single site's 20 clients have
// opened a flow to each of the 8 services well before 2k requests, while
// the sharded scenario's 160 clients are still opening first flows (one
// packet-in each) up to about 8k, so it is measured between 8k and 32k.
// The simulation is deterministic per seed, so the count is stable — a
// failure here means a new allocation crept onto the request path.
func TestReplayAllocsPerRequestRegression(t *testing.T) {
	sharded := func(shards int) func(int) int {
		return func(requests int) int { return edge.RunReplayShard(benchSeed, requests, shards, nil).Errors }
	}
	for _, c := range []struct {
		name         string
		small, large int
		replay       func(requests int) (errors int)
	}{
		{"single-site", 2000, 8000, func(requests int) int { return edge.RunReplayScale(benchSeed, requests).Errors }},
		{"sharded-1", 8000, 32000, sharded(1)},
		{"sharded-2", 8000, 32000, sharded(2)},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(requests int) float64 {
				return testing.AllocsPerRun(1, func() {
					if errs := c.replay(requests); errs != 0 {
						t.Fatalf("replay of %d requests: %d errors", requests, errs)
					}
				})
			}
			perRequest := (run(c.large) - run(c.small)) / float64(c.large-c.small)
			t.Logf("steady-state allocations per request: %.2f", perRequest)
			if perRequest >= 10 {
				t.Fatalf("steady-state allocs/request = %.2f, want < 10", perRequest)
			}
		})
	}
}
