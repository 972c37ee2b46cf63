package replicate

import "repro/internal/cfg"

// Profit is the pluggable profitability model of the generic duplication
// engine: it names the static metric a duplication pass is driving down.
// Each pass hands the engine's budget the metric's value after every
// applied duplication, and the budget cuts the pass off (§5.2
// conservatism) once maxFutile consecutive applications stop lowering it.
type Profit interface {
	// Metric returns the model's current static count for f; lower is
	// better, and a pass that stops lowering it is cut off.
	Metric(f *cfg.Func) int
}

// ProfitJumps is the paper's objective: the static count of direct
// unconditional jumps. JUMPS replication and the pipeline's Figure-3 loop
// use it — a replication only counts as progress while the function's
// jump count keeps falling.
var ProfitJumps Profit = profitJumps{}

type profitJumps struct{}

func (profitJumps) Metric(f *cfg.Func) int { return countJumps(f) }

// ProfitFolds is the DUPS objective: the number of decided predecessor
// edges — incoming edges on which a conditional branch's outcome is already
// known (constant operands or a dominating test on the same comparison).
// Each applied fold consumes its decided edge, so the metric normally falls
// monotonically; cascaded folds through freshly duplicated blocks may
// create new decided edges, which the budget's futility cutoff and the RTL
// ceiling keep bounded.
var ProfitFolds Profit = profitFolds{}

type profitFolds struct{}

func (profitFolds) Metric(f *cfg.Func) int { return countDecidedEdges(f) }
