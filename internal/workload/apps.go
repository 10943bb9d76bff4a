package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// DataSet selects one of the three input data sets the paper evaluates per
// application (Table 2: "set 1-3", "clip 1-3", "seq 1-3").
type DataSet int

// The three data sets.
const (
	Set1 DataSet = iota
	Set2
	Set3
)

// String returns "set1".."set3".
func (d DataSet) String() string { return fmt.Sprintf("set%d", int(d)+1) }

// Spec parameterizes a synthetic application generator. All work values are
// in giga-cycles.
type Spec struct {
	// Name of the application.
	Name string
	// NumThreads is the thread count (the paper uses 6).
	NumThreads int
	// Iterations is the number of burst+sync pairs per thread.
	Iterations int
	// BurstWork and BurstActivity characterize the independent
	// high-activity phases.
	BurstWork, BurstActivity float64
	// SyncWork and SyncActivity characterize the dependent low-activity
	// phases (each ends at a barrier).
	SyncWork, SyncActivity float64
	// Jitter is the relative spread (0.3 = +-30%) applied per phase and
	// thread, creating the heterogeneity that makes thread placement
	// matter.
	Jitter float64
	// ThreadImbalance skews burst work across threads: thread i's bursts
	// are scaled by 1 + ThreadImbalance*(2i/(n-1) - 1). Imbalanced threads
	// make fast threads wait at barriers (idle cores), producing the
	// low-average-temperature / high-thermal-cycling signature of the mpeg
	// applications (Section 3).
	ThreadImbalance float64
	// PerfConstraint is the throughput constraint Pc in giga-cycles/s.
	PerfConstraint float64
	// Seed makes generation deterministic.
	Seed int64
}

// Generate builds the application from the spec.
func (s Spec) Generate() *Application {
	if s.NumThreads <= 0 || s.Iterations <= 0 {
		panic(fmt.Sprintf("workload: spec %q: need positive threads and iterations", s.Name))
	}
	rng := rand.New(rand.NewSource(s.Seed))
	jit := func(base float64) float64 {
		if s.Jitter == 0 {
			return base
		}
		f := 1 + s.Jitter*(2*rng.Float64()-1)
		if f < 0.05 {
			f = 0.05
		}
		return base * f
	}
	threads := make([]*Thread, s.NumThreads)
	for i := range threads {
		scale := 1.0
		if s.NumThreads > 1 {
			scale += s.ThreadImbalance * (2*float64(i)/float64(s.NumThreads-1) - 1)
		}
		if scale < 0.05 {
			scale = 0.05
		}
		phases := make([]Phase, 0, 2*s.Iterations)
		for it := 0; it < s.Iterations; it++ {
			phases = append(phases,
				Phase{Kind: Burst, Work: jit(s.BurstWork) * scale, Activity: s.BurstActivity},
				Phase{Kind: Sync, Work: jit(s.SyncWork), Activity: s.SyncActivity},
			)
		}
		threads[i] = NewThread(i, s.Name, phases)
	}
	return NewApplication(s.Name, threads, s.PerfConstraint)
}

// dataSetScale returns per-data-set multipliers for work, activity and
// iteration count, reproducing the paper's spread across inputs (e.g.
// tachyon set 1 is the hot one: 69.2 C average under Linux, sets 2-3 run
// near 50 C). Lighter sets get more iterations so total execution times stay
// comparable, as in the paper.
func dataSetScale(ds DataSet) (s dataSetFactors) {
	switch ds {
	case Set1:
		return dataSetFactors{work: 1.25, activity: 1.05, iters: 1.0, jitter: 1.0, imbalance: 1.0, seed: 101}
	case Set2:
		return dataSetFactors{work: 0.60, activity: 0.92, iters: 1.9, jitter: 3.0, imbalance: 3.5, seed: 202}
	default:
		return dataSetFactors{work: 0.55, activity: 0.88, iters: 2.0, jitter: 3.5, imbalance: 4.0, seed: 303}
	}
}

// dataSetFactors are the per-data-set multipliers applied to a Spec: lighter
// data sets (2-3) have less work per burst but more irregular thread timing,
// which is why the paper's Linux rows show more thermal cycling on them.
type dataSetFactors struct {
	work, activity, iters, jitter, imbalance float64
	seed                                     int64
}

// apply scales a base spec by the data-set factors, clamping jitter and
// imbalance to sane ranges.
func (f dataSetFactors) apply(sp Spec) Spec {
	sp.BurstWork *= f.work
	sp.SyncWork *= f.work
	sp.BurstActivity = clampActivity(sp.BurstActivity * f.activity)
	sp.Iterations = int(float64(sp.Iterations) * f.iters)
	sp.Jitter = math.Min(sp.Jitter*f.jitter, 0.5)
	sp.ThreadImbalance = math.Min(sp.ThreadImbalance*f.imbalance, 0.85)
	sp.Seed += f.seed
	return sp
}

// Tachyon builds the ray-tracing application: long, nearly uninterrupted
// high-activity bursts. It produces the highest average temperatures of the
// suite.
func Tachyon(ds DataSet) *Application { return TachyonSpec(ds).Generate() }

// TachyonSpec returns the data-set-scaled spec behind Tachyon, so callers can
// derive variants (e.g. longer runs for convergence sweeps).
func TachyonSpec(ds DataSet) Spec {
	return dataSetScale(ds).apply(Spec{
		Name:            "tachyon",
		NumThreads:      6,
		Iterations:      55,
		BurstWork:       16.0,
		BurstActivity:   0.97,
		SyncWork:        0.1,
		SyncActivity:    0.15,
		Jitter:          0.05,
		ThreadImbalance: 0.02,
		PerfConstraint:  9.5,
		Seed:            1000,
	})
}

// MPEGDec builds the mpeg decoding application: short light bursts with long
// dependent phases, yielding low average temperature but high thermal
// cycling.
func MPEGDec(ds DataSet) *Application { return MPEGDecSpec(ds).Generate() }

// MPEGDecSpec returns the data-set-scaled spec behind MPEGDec, so callers can
// derive variants (e.g. longer runs for convergence sweeps).
func MPEGDecSpec(ds DataSet) Spec {
	return dataSetScale(ds).apply(Spec{
		Name:            "mpeg_dec",
		NumThreads:      6,
		Iterations:      125,
		BurstWork:       6.0,
		BurstActivity:   0.60,
		SyncWork:        0.10,
		SyncActivity:    0.05,
		Jitter:          0.30,
		ThreadImbalance: 0.70,
		PerfConstraint:  6.5,
		Seed:            2000,
	})
}

// MPEGEnc builds the mpeg encoding application: like decoding but with
// heavier bursts (motion estimation) and long dependent phases.
func MPEGEnc(ds DataSet) *Application { return MPEGEncSpec(ds).Generate() }

// MPEGEncSpec returns the data-set-scaled spec behind MPEGEnc, so callers can
// derive variants (e.g. longer runs for convergence sweeps).
func MPEGEncSpec(ds DataSet) Spec {
	return dataSetScale(ds).apply(Spec{
		Name:            "mpeg_enc",
		NumThreads:      6,
		Iterations:      140,
		BurstWork:       7.0,
		BurstActivity:   0.66,
		SyncWork:        0.15,
		SyncActivity:    0.05,
		Jitter:          0.30,
		ThreadImbalance: 0.65,
		PerfConstraint:  6.5,
		Seed:            3000,
	})
}

// FaceRec builds the face recognition application: long independent
// high-activity phases with short dependent phases — high average
// temperature with low cycling under default scheduling (Fig. 1).
func FaceRec(ds DataSet) *Application { return FaceRecSpec(ds).Generate() }

// FaceRecSpec returns the data-set-scaled spec behind FaceRec, so callers can
// derive variants (e.g. longer runs for convergence sweeps).
func FaceRecSpec(ds DataSet) Spec {
	return dataSetScale(ds).apply(Spec{
		Name:            "face_rec",
		NumThreads:      6,
		Iterations:      140,
		BurstWork:       5.0,
		BurstActivity:   0.85,
		SyncWork:        0.3,
		SyncActivity:    0.20,
		Jitter:          0.12,
		ThreadImbalance: 0.08,
		PerfConstraint:  8.5,
		Seed:            4000,
	})
}

// Sphinx builds the speech recognition application: medium bursts and
// moderate dependency.
func Sphinx(ds DataSet) *Application { return SphinxSpec(ds).Generate() }

// SphinxSpec returns the data-set-scaled spec behind Sphinx, so callers can
// derive variants (e.g. longer runs for convergence sweeps).
func SphinxSpec(ds DataSet) Spec {
	return dataSetScale(ds).apply(Spec{
		Name:            "sphinx",
		NumThreads:      6,
		Iterations:      200,
		BurstWork:       2.5,
		BurstActivity:   0.80,
		SyncWork:        0.4,
		SyncActivity:    0.30,
		Jitter:          0.30,
		ThreadImbalance: 0.30,
		PerfConstraint:  7.0,
		Seed:            5000,
	})
}

func clampActivity(a float64) float64 {
	if a > 1 {
		return 1
	}
	if a < 0 {
		return 0
	}
	return a
}

// AppNames lists the available application generators.
func AppNames() []string {
	return []string{"tachyon", "mpeg_dec", "mpeg_enc", "face_rec", "sphinx"}
}

// SpecByName returns the spec of an application by name ("tachyon",
// "mpeg_dec", "mpeg_enc", "face_rec", "sphinx") and data set, without
// generating the application.
func SpecByName(name string, ds DataSet) (Spec, error) {
	switch name {
	case "tachyon":
		return TachyonSpec(ds), nil
	case "mpeg_dec", "mpegdec":
		return MPEGDecSpec(ds), nil
	case "mpeg_enc", "mpegenc":
		return MPEGEncSpec(ds), nil
	case "face_rec", "facerec":
		return FaceRecSpec(ds), nil
	case "sphinx":
		return SphinxSpec(ds), nil
	default:
		return Spec{}, fmt.Errorf("workload: unknown application %q (want one of %v)", name, AppNames())
	}
}

// ByName builds an application by name and data set: SpecByName, then
// Generate.
func ByName(name string, ds DataSet) (*Application, error) {
	s, err := SpecByName(name, ds)
	if err != nil {
		return nil, err
	}
	return s.Generate(), nil
}
