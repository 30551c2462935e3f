package bench

import "math/rand"

// newRng returns a deterministic source for the given seed.
func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// AllFigureIDs lists the experiment ids understood by the ildq-bench
// command, in presentation order.
func AllFigureIDs() []string {
	return []string{
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"ablation-strategies", "ablation-catalog",
		"exp-io", "exp-sensitivity", "exp-throughput", "exp-adaptive",
		"exp-continuous", "exp-mixed", "exp-nn", "exp-obs",
		"exp-durability",
	}
}
