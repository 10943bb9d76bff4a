package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/workload"
)

// goldenApp generates a short synthetic application so each golden run
// stays in the tens of milliseconds.
func goldenApp(sp workload.Spec, iters int) *workload.Application {
	sp.Iterations = iters
	return sp.Generate()
}

// zeroSyncChainApp is an application whose threads pass through two
// consecutive zero-work Sync phases after their first burst: every barrier
// release lands the threads on the next barrier at once, so barrier
// releases chain across ticks while a co-scheduled application keeps
// running.
func zeroSyncChainApp() *workload.Application {
	ths := make([]*workload.Thread, 2)
	for i := range ths {
		ths[i] = workload.NewThread(i, "chain", []workload.Phase{
			{Kind: workload.Burst, Work: 3 + float64(i), Activity: 0.8},
			{Kind: workload.Sync, Work: 0.2, Activity: 0.3},
			{Kind: workload.Sync, Work: 0, Activity: 0.3},
			{Kind: workload.Sync, Work: 0, Activity: 0.3},
			{Kind: workload.Burst, Work: 6, Activity: 0.9},
			{Kind: workload.Sync, Work: 0.1, Activity: 0.3},
		})
	}
	return workload.NewApplication("chain", ths, 0)
}

// resultDigest hashes the bits of everything a run's tick path decides: every
// retained temperature and power sample, the completion time, both energies,
// the perf counters, migrations and application switches.
func resultDigest(res *Result) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, mt := range []*trace.MultiTrace{res.Trace, res.PowerTrace} {
		put(uint64(len(mt.Cores)))
		for _, s := range mt.Cores {
			put(uint64(len(s.Values)))
			for _, v := range s.Values {
				put(math.Float64bits(v))
			}
		}
	}
	for _, v := range []float64{res.ExecTimeS, res.DynamicEnergyJ, res.StaticEnergyJ} {
		put(math.Float64bits(v))
	}
	for _, v := range []int64{res.CacheMisses, res.PageFaults, res.Migrations, int64(res.AppSwitches)} {
		put(uint64(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenTickDigests pins the bits of one retained-trace run per platform
// tick path that the tournament digests do not reach: application switches,
// co-scheduled applications, heterogeneous cores, DVFS transition stalls,
// the generic (non-quad-core) thermal kernel, a single core, per-core level
// forcing, the implicit solver, and chained barrier releases. The digests
// were computed on the tick before its fused rewrite; a change to the tick
// that alters any float64 of any sample fails here.
func TestGoldenTickDigests(t *testing.T) {
	cases := []struct {
		name   string
		want   string
		config func(*RunConfig)
		work   func() workload.Workload
		policy func() Policy
	}{
		{
			name: "sequence-proposed",
			want: "54fc7ad25ae8fd38d1775a299df00fc86b377ef0b1fa2dd732a19e2d7cbd35ca",
			work: func() workload.Workload {
				return workload.NewSequence(
					goldenApp(workload.TachyonSpec(workload.Set2), 30),
					goldenApp(workload.MPEGDecSpec(workload.Set3), 30))
			},
			policy: func() Policy { return &ProposedPolicy{} },
		},
		{
			name: "concurrent",
			want: "0818ecf21996b2b1efb9bb259ccf57257aedbb905ebb4057467935e868b95be7",
			work: func() workload.Workload {
				return workload.NewConcurrent(
					goldenApp(workload.FaceRecSpec(workload.Set3), 20),
					goldenApp(workload.MPEGEncSpec(workload.Set3), 20))
			},
			policy: func() Policy { return LinuxPolicy{Kind: governor.Ondemand} },
		},
		{
			name: "heterogeneous",
			want: "6cdc78cc53531a5dde781ce4e631517789e7b25d54b5f48ef0c0829cf92b9af1",
			config: func(c *RunConfig) {
				c.Platform.CorePowerScale = []float64{1.6, 1.6, 0.45, 0.45}
				c.Platform.Sched.CoreSpeed = []float64{1.5, 1.5, 0.6, 0.6}
			},
			work:   func() workload.Workload { return goldenApp(workload.SphinxSpec(workload.Set2), 60) },
			policy: func() Policy { return LinuxPolicy{Kind: governor.Ondemand} },
		},
		{
			name: "dvfs-stall-conservative",
			want: "77834464c282de3f2c34e5d46d2638930fff85898deace0218150b5dfcfcaeb3",
			config: func(c *RunConfig) {
				c.Platform.DVFSTransitionS = 0.002
			},
			work:   func() workload.Workload { return goldenApp(workload.MPEGDecSpec(workload.Set1), 30) },
			policy: func() Policy { return LinuxPolicy{Kind: governor.Conservative} },
		},
		{
			name: "grid4x4",
			want: "5deafefde8a46859f38d6fe90ed9888df07f5ad239e375a11bb0e016ab598bd4",
			config: func(c *RunConfig) {
				c.Platform.GridRows, c.Platform.GridCols = 4, 4
				c.Platform.Sched.NumCores = 16
			},
			work: func() workload.Workload {
				sp := workload.TachyonSpec(workload.Set2)
				sp.NumThreads = 20
				return goldenApp(sp, 16)
			},
			policy: func() Policy { return LinuxPolicy{Kind: governor.Ondemand} },
		},
		{
			name: "single-core",
			want: "742441e3e93a1e6b2986ee70bc0032b32058d2f7544ef051002d255c4204c008",
			config: func(c *RunConfig) {
				c.Platform.GridRows, c.Platform.GridCols = 1, 1
				c.Platform.Sched.NumCores = 1
			},
			work:   func() workload.Workload { return goldenApp(workload.TachyonSpec(workload.Set3), 8) },
			policy: func() Policy { return LinuxPolicy{Kind: governor.Ondemand} },
		},
		{
			name: "reactive-throttle",
			want: "9d3fd0698f1ba33eb3063771f7bc9c5a6dbbc57816fa28488133c9556ca18c27",
			work: func() workload.Workload { return goldenApp(workload.TachyonSpec(workload.Set1), 30) },
			policy: func() Policy {
				pol := DefaultThrottlePolicy()
				pol.TripC = 55
				return pol
			},
		},
		{
			name: "implicit-solver",
			want: "e9987c74c371855ab4b8cd079fde324c42007a2c0d863509a2d3317e83ae1aa2",
			config: func(c *RunConfig) {
				c.Platform.Solver = platform.SolverImplicit
			},
			work:   func() workload.Workload { return goldenApp(workload.FaceRecSpec(workload.Set2), 20) },
			policy: func() Policy { return &ProposedPolicy{} },
		},
		{
			name: "zero-sync-chain",
			want: "5c96f9b6095dd21310e44a20ef572799bf4ddc7095ef6aafff1521566f163d47",
			work: func() workload.Workload {
				return workload.NewConcurrent(
					goldenApp(workload.TachyonSpec(workload.Set3), 12),
					zeroSyncChainApp())
			},
			policy: func() Policy { return LinuxPolicy{Kind: governor.Ondemand} },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultRunConfig()
			if tc.config != nil {
				tc.config(&cfg)
			}
			res, err := Run(cfg, tc.work(), tc.policy())
			if err != nil {
				t.Fatal(err)
			}
			if got := resultDigest(res); got != tc.want {
				t.Errorf("%s: digest %s, want %s (exec %.17g s, %d samples, %d migrations, %d switches)",
					tc.name, got, tc.want, res.ExecTimeS, res.Trace.Len(), res.Migrations, res.AppSwitches)
			}
		})
	}
}
