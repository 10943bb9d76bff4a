package campaign

import "repro/internal/experiments"

// PlanBatches partitions a planned cell list into groups of cells that expose
// the prepare/finish split (Cell.Prepare != nil), ready for sim.RunBatch, and
// a scalar remainder. Groups preserve plan order and hold at most maxLanes
// cells (maxLanes <= 0 means unbounded). The service pool runs every cell on
// its own; this grouping serves callers that drive prepared runs themselves.
//
// Scalar indices are cells without a prepare split (seed studies, single-shot
// figure experiments): they keep running through Cell.Run.
func PlanBatches(cells []experiments.Cell, maxLanes int) (groups [][]int, scalar []int) {
	var cur []int
	for i := range cells {
		if cells[i].Prepare == nil {
			scalar = append(scalar, i)
			continue
		}
		cur = append(cur, i)
		if maxLanes > 0 && len(cur) == maxLanes {
			groups = append(groups, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	return groups, scalar
}
