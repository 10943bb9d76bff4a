package sim

import "repro/internal/workload"

// BatchRun is one simulation of a batch: the same triple Run takes.
type BatchRun struct {
	Cfg    RunConfig
	Work   workload.Workload
	Policy Policy
}

// RunBatch executes the runs one after another through Run. results[i] and
// errs[i] correspond to runs[i]; exactly one of them is non-nil per index,
// and a failed run leaves the others' results untouched.
func RunBatch(runs []BatchRun) (results []*Result, errs []error) {
	results = make([]*Result, len(runs))
	errs = make([]error, len(runs))
	for i, r := range runs {
		results[i], errs[i] = Run(r.Cfg, r.Work, r.Policy)
	}
	return results, errs
}
