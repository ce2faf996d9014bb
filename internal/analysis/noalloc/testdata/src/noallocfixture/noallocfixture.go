// Package noallocfixture exercises the noalloc analyzer: every
// allocation-forcing construct fires inside //lad:noalloc bodies, the
// grow-guard and struct-owned-append idioms do not, and unannotated
// functions are out of scope.
package noallocfixture

import "fmt"

type buffers struct {
	buf  []float64
	tags []int
}

// hot is the idiomatic zero-alloc steady-state shape: first-touch
// sizing under a cap guard, then reuse.
//
//lad:noalloc
func hot(b *buffers, xs []float64) float64 {
	if cap(b.buf) < len(xs) {
		b.buf = make([]float64, len(xs))
	}
	b.buf = b.buf[:len(xs)]
	s := 0.0
	for i, x := range xs {
		b.buf[i] = x * x
		s += x
	}
	return s
}

//lad:noalloc
func builtins(b *buffers, xs []float64) int {
	ys := make([]float64, len(xs)) // want `make\(\.\.\.\) in //lad:noalloc`
	p := new(buffers)              // want `new\(\.\.\.\) in //lad:noalloc`
	q := &buffers{}                // want `escapes to the heap`
	lit := []int{1, 2, 3}          // want `slice literal`
	m := map[int]int{}             // want `map literal`
	var local []int
	local = append(local, 1)                                 // want `append to non-struct-owned slice`
	b.tags = append(b.tags, len(ys)+len(p.tags)+len(q.tags)) // struct-owned: allowed
	return lit[0] + m[0] + local[0]
}

//lad:noalloc
func strings(b *buffers, bs []byte) string {
	s := "a"
	s += "b"        // want `string concatenation`
	t := s + "c"    // want `string concatenation`
	u := string(bs) // want `string conversion`
	fmt.Println(t)  // want `fmt\.Println`
	return u
}

//lad:noalloc
func spawning(b *buffers) {
	go cold()                    // want `go statement`
	f := func() int { return 1 } // want `closure creation`
	_ = f()
}

type pair struct{ a, b float64 }

//lad:noalloc
func boxing(v pair, p *buffers) {
	take(v)     // want `boxes it`
	take(p)     // pointer-shaped: allowed
	varargs(1)  // want `loose variadic argument`
	varargs()   // empty variadic: allowed
	spread(nil) // conversion-free nil: allowed
}

func take(v any) int {
	_, ok := v.(*buffers)
	if ok {
		return 1
	}
	return 0
}
func varargs(vs ...int) int { return len(vs) }
func spread(vs []int) int   { return varargs(vs...) }

// cold is unannotated: the same constructs are fine here.
func cold() []int {
	xs := make([]int, 4)
	xs = append(xs, 5)
	return xs
}

// scale allocates only through a helper — the loophole the transitive
// check closes.
//
//lad:noalloc
func scale(xs []float64) []float64 {
	return helperAlloc(xs) // want `reaches an allocation: helperAlloc allocates at noallocfixture\.go:\d+`
}

func helperAlloc(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	return out
}

// deep reaches the same allocation two hops away; the witness chain
// names every intermediate helper.
//
//lad:noalloc
func deep(xs []float64) []float64 {
	return middle(xs) // want `reaches an allocation: middle calls helperAlloc, which allocates`
}

func middle(xs []float64) []float64 { return helperAlloc(xs) }

// trustedChain calls an annotated helper: trusted clean by contract
// (hot's own body is checked at hot's definition).
//
//lad:noalloc
func trustedChain(b *buffers, xs []float64) float64 { return hot(b, xs) }

// sanctionedHelper documents its amortized allocation with a reasoned
// ignore, so its summary stays clean and callers do not re-report it.
//
//lad:noalloc
func sanctioned(xs []float64) int { return sanctionedHelper(xs) }

func sanctionedHelper(xs []float64) int {
	//lint:ignore noalloc amortized scratch map, rebuilt once per batch
	m := map[int]int{}
	for i := range xs {
		m[i] = i
	}
	return len(m)
}

// Mutually recursive allocation-free helpers stay clean through the
// fixpoint.
//
//lad:noalloc
func viaEven(n int) bool { return even(n) }

func even(n int) bool {
	if n == 0 {
		return true
	}
	return odd(n - 1)
}

func odd(n int) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}

// Dynamically dispatched sites are not chased (the 0 allocs/op tests
// cover them at runtime), even when the value could allocate.
//
//lad:noalloc
func viaFuncValue(f func() []int) int { return len(f()) }

// The pool-miss pattern: the helper's CALL EDGE to an allocating
// constructor carries the reasoned ignore (the constructor keeps its
// allocation fact for other callers), so the annotated caller is clean.
//
//lad:noalloc
func viaEdge() int { return edgeHelper() }

func edgeHelper() int {
	//lint:ignore noalloc pool-miss path: constructed once, recycled thereafter
	return construct()
}

func construct() int {
	p := new(int)
	return *p
}

// directToConstruct proves the sanction above is edge-scoped: a
// different caller of the same constructor still reports.
//
//lad:noalloc
func directToConstruct() int {
	return construct() // want `call to construct in //lad:noalloc function reaches an allocation: construct allocates at noallocfixture\.go:\d+`
}
