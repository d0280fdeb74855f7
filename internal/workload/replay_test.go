package workload

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"testing"
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/metrics"
	"transparentedge/internal/testbed"
)

func newReplayTestbed(seed int64, clients int) *testbed.Testbed {
	return testbed.New(testbed.Options{Seed: seed, EnableDocker: true, NumClients: clients})
}

// fig9Fingerprint is the replay fingerprint of the full fig. 9 trace at seed
// 42 (pre-pull + pre-create). It was captured while the goroutine-per-request
// strategy still existed, and that strategy and the callback-mode engine
// both produced it, so it is the parity gate the legacy comparison used to
// be.
const fig9Fingerprint uint64 = 0x76af78394e7fcc96

// TestReplayParityFig9 pins the replay engine's output on the full fig. 9
// trace to the golden fingerprint recorded from the legacy strategy.
func TestReplayParityFig9(t *testing.T) {
	trace := Generate(DefaultConfig(42))
	res, err := ReplayWith(newReplayTestbed(42, 20), trace, catalog.Nginx, Options{
		PrePull: true, PreCreate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := replayFingerprint(res); got != fig9Fingerprint {
		t.Errorf("fig. 9 replay fingerprint %016x, golden %016x", got, fig9Fingerprint)
	}
}

// replayFingerprint digests a replay's deterministic outputs: the error
// count and both series' (arrival, total) sample multisets. Samples are
// sorted first because two requests can complete at the same instant, and
// their insertion order then follows event sequence numbers.
func replayFingerprint(res *ReplayResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(res.Errors))
	for _, s := range []*metrics.Series{res.Totals, res.FirstRequests} {
		samples := sortedSamples(s)
		word(uint64(len(samples)))
		for _, x := range samples {
			word(uint64(x.At))
			word(uint64(x.Value))
		}
	}
	return h.Sum64()
}

func sortedSamples(s *metrics.Series) []metrics.Sample {
	out := s.Samples()
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Value < out[j].Value
	})
	return out
}

func TestReplayGuardNoClients(t *testing.T) {
	tb := newReplayTestbed(1, 5)
	tb.Clients = nil
	trace := Generate(Config{Seed: 1, Services: 2, TotalRequests: 4,
		MinPerService: 2, Duration: time.Second, Clients: 2})
	if _, err := Replay(tb, trace, catalog.Nginx, false, false); err == nil {
		t.Fatal("Replay with no clients did not error")
	}
}

func TestReplayGuardZeroServices(t *testing.T) {
	tb := newReplayTestbed(1, 5)
	if _, err := Replay(tb, &Trace{}, catalog.Nginx, false, false); err == nil {
		t.Fatal("Replay with zero-service trace did not error")
	}
	if _, err := Replay(tb, nil, catalog.Nginx, false, false); err == nil {
		t.Fatal("Replay with nil trace did not error")
	}
}

func TestReplayGuardOutOfRangeRequests(t *testing.T) {
	tb := newReplayTestbed(1, 5)
	bad := &Trace{
		Config:   Config{Services: 1, TotalRequests: 1, Duration: time.Second, Clients: 1},
		Requests: []Request{{At: 0, Client: 0, Service: 5}},
	}
	if _, err := Replay(tb, bad, catalog.Nginx, false, false); err == nil {
		t.Fatal("out-of-range service did not error")
	}
	bad.Requests[0] = Request{At: 0, Client: -1, Service: 0}
	if _, err := Replay(tb, bad, catalog.Nginx, false, false); err == nil {
		t.Fatal("negative client did not error")
	}
}

// TestReplayErrorAccountingPrepFailure: a failed pre-pull increments Errors
// exactly once and aborts preparation; the replay itself still proceeds
// (requests are served by cloud forwarding while edge deployment is broken).
func TestReplayErrorAccountingPrepFailure(t *testing.T) {
	cfg := Config{Seed: 1, Services: 2, TotalRequests: 8, MinPerService: 4,
		Duration: 10 * time.Second, Clients: 5}
	trace := Generate(cfg)
	tb := newReplayTestbed(1, 5)
	// Unpublish the image so the pre-pull manifest request 404s.
	tb.Hub.Remove(catalog.ImgNginx)
	res, err := ReplayWith(tb, trace, catalog.Nginx, Options{PrePull: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 1 {
		t.Fatalf("Errors = %d, want exactly 1 (the failed pre-pull)", res.Errors)
	}
	if res.Totals.Len() != cfg.TotalRequests {
		t.Fatalf("Totals.Len = %d, want %d (requests served from the cloud)",
			res.Totals.Len(), cfg.TotalRequests)
	}
}

// TestReplayErrorAccountingRequestFailure: each timed-out request increments
// Errors exactly once and adds no sample.
func TestReplayErrorAccountingRequestFailure(t *testing.T) {
	cfg := Config{Seed: 1, Services: 2, TotalRequests: 8, MinPerService: 4,
		Duration: 10 * time.Second, Clients: 5}
	trace := Generate(cfg)
	tb := newReplayTestbed(1, 5)
	res, err := ReplayWith(tb, trace, catalog.Nginx, Options{
		RequestTimeout: time.Microsecond, // shorter than any RTT
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != cfg.TotalRequests {
		t.Errorf("Errors = %d, want %d", res.Errors, cfg.TotalRequests)
	}
	if res.Totals.Len() != 0 {
		t.Errorf("Totals.Len = %d, want 0", res.Totals.Len())
	}
}

func TestReplayMaxInFlight(t *testing.T) {
	cfg := Config{Seed: 2, Services: 3, TotalRequests: 30, MinPerService: 5,
		Duration: 20 * time.Second, Clients: 5}
	trace := Generate(cfg)
	tb := newReplayTestbed(2, 5)
	res, err := ReplayWith(tb, trace, catalog.Nginx, Options{
		PrePull: true, PreCreate: true, MaxInFlight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("Errors = %d", res.Errors)
	}
	if res.Totals.Len() != cfg.TotalRequests {
		t.Fatalf("Totals.Len = %d, want %d — queued arrivals lost?",
			res.Totals.Len(), cfg.TotalRequests)
	}
	if res.FirstRequests.Len() != cfg.Services {
		t.Fatalf("FirstRequests.Len = %d, want %d", res.FirstRequests.Len(), cfg.Services)
	}
	// With cap 1 a queued request's measured total includes its queueing
	// delay, so no sample can undercut the uncontended fast path: every
	// total must stay above the bare client->EGS round trip.
	if res.Totals.Min() <= 0 {
		t.Fatalf("Totals.Min = %v", res.Totals.Min())
	}
}

func TestReplayHistogramModeAboveThreshold(t *testing.T) {
	cfg := Config{Seed: 3, Services: 2, TotalRequests: 40, MinPerService: 5,
		Duration: 20 * time.Second, Clients: 5}
	trace := Generate(cfg)
	tb := newReplayTestbed(3, 5)
	res, err := ReplayWith(tb, trace, catalog.Nginx, Options{
		PrePull: true, PreCreate: true, ExactSamples: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals.Exact() {
		t.Fatal("Totals did not fold into histogram mode above the threshold")
	}
	if res.Totals.Len() != cfg.TotalRequests {
		t.Fatalf("Totals.Len = %d, want %d", res.Totals.Len(), cfg.TotalRequests)
	}
	if res.Totals.Median() <= 0 {
		t.Fatalf("Median = %v, want > 0", res.Totals.Median())
	}
}
