// Package det exercises the detorder analyzer: //mhm:deterministic
// functions and their static callees must avoid nondeterminism sources.
package det

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// sink absorbs fixture values.
var sink float64

// Sum accumulates a float in map-iteration order.
//
//mhm:deterministic
func Sum(m map[int]float64) float64 {
	var total float64
	for _, v := range m {
		total += v // want "accumulates a float across a map range"
	}
	return total
}

// Keys emits output in map-iteration order without sorting it.
//
//mhm:deterministic
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want "appends output inside a map range"
	}
	return out
}

// Stamp reads the wall clock.
//
//mhm:deterministic
func Stamp() int64 {
	t := time.Now() // want "calls time.Now"
	return t.Unix()
}

// Jitter draws from the global math/rand source.
//
//mhm:deterministic
func Jitter(x float64) float64 {
	return x + rand.Float64() // want "global math/rand source"
}

// Fused uses the fused multiply-add.
//
//mhm:deterministic
func Fused(a, b, c float64) float64 {
	return math.FMA(a, b, c) // want "calls math.FMA"
}

// Gather races two channels through a select.
//
//mhm:deterministic
func Gather(a, b chan float64) float64 {
	select { // want "selects over 2 ready channels"
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// Collect folds worker results in arrival order.
//
//mhm:deterministic
func Collect(ch chan float64, n int) float64 {
	var acc float64
	for i := 0; i < n; i++ {
		acc += <-ch // want "arrival order"
	}
	return acc
}

// Root is clean itself but reaches helper through a static call.
//
//mhm:deterministic
func Root(xs []float64) float64 {
	return helper(xs)
}

// helper is unannotated; the contract reaches it from Root.
func helper(xs []float64) float64 {
	_ = time.Now() // want "helper \\(deterministic via Root\\) calls time.Now"
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// scaler carries the method taken as a method expression in Apply.
type scaler struct{}

func (scaler) bump(x float64) float64 {
	return x * rand.Float64() // want "bump \\(deterministic via Apply\\)"
}

// Apply reaches bump through a method expression, not a direct call.
//
//mhm:deterministic
func Apply(xs []float64) {
	f := scaler.bump
	for i := range xs {
		xs[i] = f(scaler{}, xs[i])
	}
}

// SortedSum is the canonical repair: collect keys, sort, then reduce in
// sorted order. The append inside the map range is exempt because the
// slice is handed to sort.Strings.
//
//mhm:deterministic
func SortedSum(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var total float64
	for _, k := range keys {
		total += m[k]
	}
	return total
}

// Seeded draws from a caller-injected, seeded source: allowed.
//
//mhm:deterministic
func Seeded(seed int64, n int) float64 {
	rng := rand.New(rand.NewSource(seed))
	var s float64
	for i := 0; i < n; i++ {
		s += rng.Float64()
	}
	return s
}

// Wall carries a reviewed suppression for a boot-time stamp.
//
//mhm:deterministic
func Wall() int64 {
	//mhmlint:ignore detorder boot-time stamp is outside the scored path
	return time.Now().Unix()
}

// valuer is a dynamic dependency: interface calls are not traversed, the
// annotated caller vouches for what it injects.
type valuer interface {
	value(x float64) float64
}

// Dyn calls through an interface; clock's wall-clock read is not reached.
//
//mhm:deterministic
func Dyn(v valuer, x float64) float64 {
	return v.value(x)
}

// clock satisfies valuer but is never referenced from a deterministic
// body, so its wall-clock read is out of contract.
type clock struct{}

func (clock) value(x float64) float64 {
	return x * float64(time.Now().Unix())
}

// Free is unannotated and unreachable from any root: no contract.
func Free() int64 {
	return time.Now().Unix()
}
