package experiments

import (
	"testing"

	"transparentedge/internal/faults"
)

// Golden fingerprints of the sharded replay, recorded while every region
// still ran each request as a blocking goroutine-per-request process. The
// callback-mode engine must reproduce them bit for bit at every shard count.
const (
	// goldenShardClean is ReplayShard(7, 640, shards, nil).
	goldenShardClean uint64 = 0x4470f4e1fbdadcb4
	// goldenShardFaults is ReplayShard(3, 320, shards, goldenFaultSpec()).
	goldenShardFaults uint64 = 0x750aa23ad46c81d7
	// goldenMobilityOpenFlow / goldenMobilitySRv6 are the serial
	// fingerprints MobilitySweep(23, 160) reports per backend: the sharded
	// mobility replay at the fastest handover rate.
	goldenMobilityOpenFlow uint64 = 0xfab1d8282ae01c7c
	goldenMobilitySRv6     uint64 = 0x0474621516312b36
)

// goldenFaultSpec is a cluster-fault plan with cross-shard link loss (no
// request timeout).
func goldenFaultSpec() *faults.Spec {
	return &faults.Spec{
		Seed: 42,
		Default: faults.ClusterSpec{
			PullFailProb:    0.2,
			ScaleUpFailProb: 0.1,
			CrashProb:       0.05,
		},
		LinkLoss: 0.01,
	}
}

func TestReplayShardGolden(t *testing.T) {
	for _, shards := range []int{1, 2} {
		if fp := ReplayShard(7, 640, shards, nil).Fingerprint(); fp != goldenShardClean {
			t.Errorf("shards=%d fault-free fingerprint %016x, golden %016x", shards, fp, goldenShardClean)
		}
		if fp := ReplayShard(3, 320, shards, goldenFaultSpec()).Fingerprint(); fp != goldenShardFaults {
			t.Errorf("shards=%d fault-plan fingerprint %016x, golden %016x", shards, fp, goldenShardFaults)
		}
	}
}

func TestReplayShardGoldenMobility(t *testing.T) {
	dwell := mobilityDwells[len(mobilityDwells)-1]
	for backend, want := range map[string]uint64{
		"openflow": goldenMobilityOpenFlow,
		"srv6":     goldenMobilitySRv6,
	} {
		if fp := RunMobilityShard(23, 160, 1, dwell, backend).Fingerprint(); fp != want {
			t.Errorf("%s mobility fingerprint %016x, golden %016x", backend, fp, want)
		}
	}
}
