package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/faults"
	"transparentedge/internal/obs"
	"transparentedge/internal/testbed"
)

// shardFingerprint digests a sharded replay's deterministic outputs.
func shardFingerprint(res *ShardReplayResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(res.Errors))
	word(uint64(res.Deployments))
	for _, rres := range res.PerRegion {
		word(uint64(rres.Totals.Len()))
	}
	word(res.Totals.Fingerprint())
	return h.Sum64()
}

// TestReplayShardedTimeoutUnderLinkLoss: with lossy links and a request
// timeout, every request terminates — completed or timed out — on its
// region's kernel, identically at every shard count. Loss severs
// exchanges without a retransmit, so only the timeout ends them; a
// request still in flight at the end of the run would show in the
// replay_inflight gauge.
func TestReplayShardedTimeoutUnderLinkLoss(t *testing.T) {
	trace := Generate(Config{Seed: 4, Services: 3, TotalRequests: 480, MinPerService: 4,
		Duration: 30 * time.Second, Clients: 16})
	run := func(shards int) (*ShardReplayResult, []*obs.Registry) {
		rs := testbed.NewRegions(testbed.RegionOptions{
			Seed: 4, Regions: 4, Shards: shards, ClientsPerRegion: 4, Counted: true,
			Faults: &faults.Spec{Seed: 9, LinkLoss: 0.005},
		})
		res, err := ReplaySharded(rs, trace, catalog.Nginx, Options{RequestTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		var regs []*obs.Registry
		for _, site := range rs.Sites {
			regs = append(regs, site.Counters)
		}
		return res, regs
	}
	serial, _ := run(1)
	if serial.Errors == 0 {
		t.Fatal("no request timed out: the loss plan had no effect")
	}
	for _, shards := range []int{1, 2} {
		res, regs := run(shards)
		if got, want := shardFingerprint(res), shardFingerprint(serial); got != want {
			t.Errorf("shards=%d fingerprint %016x, serial %016x", shards, got, want)
		}
		completed, lost := 0, 0
		for d, rres := range res.PerRegion {
			completed += rres.Totals.Len()
			lost += int(regs[d].Map()["replay_inflight"])
		}
		if lost != 0 {
			t.Errorf("shards=%d: %d requests still in flight at the end of the run", shards, lost)
		}
		if n := len(trace.Requests); n != completed+res.Errors+lost {
			t.Errorf("shards=%d: %d arrivals != %d completed + %d errors + %d lost",
				shards, n, completed, res.Errors, lost)
		}
	}
}

// TestReplayShardedRejectsSharedObs: a shared tracer or registry would be
// written by concurrent window workers, so the sharded replay refuses them
// instead of silently dropping them.
func TestReplayShardedRejectsSharedObs(t *testing.T) {
	trace := Generate(Config{Seed: 1, Services: 2, TotalRequests: 8, MinPerService: 2,
		Duration: time.Second, Clients: 4})
	for name, opts := range map[string]Options{
		"trace":    {Trace: obs.NewTracer(0)},
		"counters": {Counters: obs.NewRegistry()},
	} {
		rs := testbed.NewRegions(testbed.RegionOptions{Seed: 1, Regions: 2, ClientsPerRegion: 2})
		if _, err := ReplaySharded(rs, trace, catalog.Nginx, opts); err == nil {
			t.Errorf("%s: ReplaySharded accepted a shared obs handle", name)
		}
	}
}
