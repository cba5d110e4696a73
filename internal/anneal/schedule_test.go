package anneal

import (
	"math"
	"sync"
	"testing"
)

// referenceStep is step t of the annealing schedule as MinimizeCtx
// computed it inside its loop before the schedule was tabulated: the
// visiting temperature and the visiting scale sigmax.
func referenceStep(temp0, qv float64, t int) (temp, sigmax float64) {
	tq := math.Exp2(qv-1) - 1
	temp = temp0 * tq / (math.Pow(float64(t)+1, qv-1) - 1)
	v := newVisiting(qv)
	factor1 := math.Exp(math.Log(temp) / v.qv1)
	factor4 := math.Sqrt(math.Pi) * factor1 * v.factor2 / (v.factor3 * v.qv3)
	sigmax = math.Exp(-v.qv1 * math.Log(v.factor6/factor4) / v.qv3)
	return temp, sigmax
}

// TestScheduleMatchesPerIterationFormula checks every table entry up to
// t = 10⁴ against the per-iteration formula bit for bit, for the default
// (InitialTemp, Visit) pair and one other. Each pair's table is first
// used by several goroutines at once, asking for different lengths, so
// the race detector sees concurrent growth; every slice they got back
// must be a prefix of the final table.
func TestScheduleMatchesPerIterationFormula(t *testing.T) {
	const n = 10000
	for _, pair := range []struct{ temp0, qv float64 }{{5230, 2.62}, {811.5, 1.93}} {
		// A key no other test uses, so this is the table's first use.
		sched := scheduleFor(math.Nextafter(pair.temp0, 0), pair.qv)
		got := make([][]step, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for m := g * 97; m <= n; m += 1 + g*613 {
					got[g] = sched.upTo(m)
				}
			}(g)
		}
		wg.Wait()
		table := sched.upTo(n)
		for g, steps := range got {
			if len(steps) > len(table) {
				t.Fatalf("goroutine %d saw %d steps, the table has %d", g, len(steps), len(table))
			}
			for i := range steps {
				if steps[i] != table[i] {
					t.Fatalf("goroutine %d: step %d = %+v, table has %+v", g, i, steps[i], table[i])
				}
			}
		}
		for _, temp0 := range []float64{math.Nextafter(pair.temp0, 0), pair.temp0} {
			table := scheduleFor(temp0, pair.qv).upTo(n)
			for i := 1; i <= n; i++ {
				temp, sigmax := referenceStep(temp0, pair.qv, i)
				if math.Float64bits(table[i].temp) != math.Float64bits(temp) ||
					math.Float64bits(table[i].sigmax) != math.Float64bits(sigmax) {
					t.Fatalf("(%v, %v) step %d = %+v, formula gives {temp:%v sigmax:%v}",
						temp0, pair.qv, i, table[i], temp, sigmax)
				}
			}
		}
	}
}
