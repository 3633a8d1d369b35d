// Package hp exercises the hotpath analyzer: annotated functions must
// avoid allocating constructs and unannotated module-local callees.
package hp

import (
	"fmt"
	"sort"
	"time"
)

// sink defeats trivial dead-code elimination in fixtures.
var sink any

// tick is an annotated helper; calling it from a hot function is fine.
//
//mhm:hotpath
func tick(n int) int { return n + 1 }

// cold is NOT annotated.
func cold(n int) int { return n * 2 }

// Hot demonstrates every banned construct.
//
//mhm:hotpath
func Hot(buf []int, n int) int {
	s := fmt.Sprintf("%d", n) // want "calls fmt.Sprintf"
	t := time.Now()           // want "calls time.Now"
	buf = append(buf, n)      // want "calls append"
	m := make([]int, n)       // want "calls make"
	p := new(int)             // want "calls new"
	kv := map[int]int{n: n}   // want "builds a map literal"
	lit := []int{n}           // want "builds a slice literal"
	f := func() int {         // want "capturing n"
		return n
	}
	go tick(n)    // want "spawns a goroutine"
	defer tick(n) // want "defers a call"
	n = cold(n)   // want "calls hp.cold, which is not annotated"
	n = tick(n)
	use(s, t, buf, m, p, kv, lit, f)
	return n
}

// use absorbs fixture values; it is annotated so calls to it are legal.
//
//mhm:hotpath
func use(args ...any) { sink = args }

// Warm shows the allowed forms: annotated callees, stdlib outside the
// ban list, non-capturing closures, and plain arithmetic.
//
//mhm:hotpath
func Warm(xs []float64, n int) int {
	i := sort.SearchFloat64s(xs, float64(n))
	n = tick(n + i)
	cmp := func(a, b int) bool { return a < b }
	if cmp(n, i) {
		return i
	}
	return n
}

// Cold is unannotated: anything goes.
func Cold(n int) string {
	defer cold(n)
	return fmt.Sprintf("%v %v", time.Now(), append([]int{}, n))
}
