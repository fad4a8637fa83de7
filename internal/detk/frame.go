package detk

import (
	"context"
	"sort"

	"hypertree/internal/bitset"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/interrupt"
	"hypertree/internal/telemetry"
)

// Result reports one run of either engine at budget k.
type Result struct {
	// Decomposition is the witness, nil when the run found none. It
	// satisfies the three GHD conditions plus the descendant condition
	// (CheckSpecial) and has width ≤ k+SlackUsed.
	Decomposition *decomp.Decomposition
	// Complete reports that neither the guess cap nor cancellation cut the
	// search short. Only a complete run without a witness proves hw(H) > k
	// (k+Approx for the balanced engine).
	Complete bool
	// SlackUsed is the width in excess of k that the balanced engine's
	// approx mode spent on the witness (0 otherwise).
	SlackUsed int
	// Guesses is the number of separator candidates evaluated.
	Guesses int64
}

// frame is the state of one run that both engines share: the input and
// budget, the guess counter, the cancellation poll and the sampled trace.
type frame struct {
	h     *hypergraph.Hypergraph
	k     int
	chk   *interrupt.Checker
	trace *telemetry.Trace
	track int
	span  string // "<engine>.decompose"
	event string // "<engine>.component"

	guesses   int64
	calls     int64 // subproblems entered, for trace sampling
	capped    bool  // the guess cap cut the search short
	cancelled bool  // the context cut the search short
}

func newFrame(ctx context.Context, h *hypergraph.Hypergraph, k int, engine string, poll uint32, trace *telemetry.Trace, track int) frame {
	return frame{
		h: h, k: k, chk: interrupt.New(ctx, poll), trace: trace, track: track,
		span: engine + ".decompose", event: engine + ".component",
	}
}

// run wraps one search at budget k: the k < 1 guard, the branch-phase
// clock, the "<engine>.decompose" span, the root subproblem (every edge,
// empty connector) and witness assembly. search returns the root subtree,
// nil when it found none.
func (f *frame) run(ctx context.Context, stats *telemetry.Stats, search func(comp, conn *bitset.Set) *node) (Result, error) {
	h, k := f.h, f.k
	if k < 0 || k == 0 && h.NumEdges() > 0 {
		// Width 0 belongs to the edgeless hypergraph alone; its witness is
		// the one empty node the search builds.
		return Result{Complete: true}, nil
	}
	mark := stats.MarkPhase()
	defer stats.AttributeSince(telemetry.PhaseBranch, mark)
	f.trace.Begin(f.track, f.span, telemetry.Arg{Key: "k", Val: int64(k)})
	all := bitset.New(h.NumEdges())
	for e := 0; e < h.NumEdges(); e++ {
		all.Add(e)
	}
	root := search(all, bitset.New(h.NumVertices()))
	found := int64(0)
	if root != nil {
		found = 1
	}
	f.trace.End(f.track, f.span,
		telemetry.Arg{Key: "found", Val: found},
		telemetry.Arg{Key: "guesses", Val: f.guesses})
	res := Result{Complete: !f.cut(), Guesses: f.guesses}
	if root == nil {
		if f.cancelled {
			return res, interrupt.Cause(ctx)
		}
		return res, nil
	}
	d := decomp.New(h)
	attach(d, root, nil)
	d.Complete()
	res.Decomposition = d
	res.SlackUsed = max(d.GHWidth()-k, 0)
	return res, nil
}

// cut reports that the guess cap or cancellation cut the search short:
// from then on a failure is no proof and must stay out of the memo.
func (f *frame) cut() bool { return f.capped || f.cancelled }

// stopped reports (and latches) cancellation.
func (f *frame) stopped() bool {
	if !f.cancelled && f.chk.Stop() {
		f.cancelled = true
	}
	return f.cancelled
}

// sample emits the "<engine>.component" instant for one subproblem: every
// one at depth ≤ 1 (the interesting structure) and every 64th deeper one,
// so a thrashing search cannot flood the ring.
func (f *frame) sample(comp, conn *bitset.Set, depth int) {
	if f.calls++; f.trace != nil && (depth <= 1 || f.calls&63 == 0) {
		f.trace.Instant(f.track, f.event,
			telemetry.Arg{Key: "depth", Val: int64(depth)},
			telemetry.Arg{Key: "edges", Val: int64(comp.Len())},
			telemetry.Arg{Key: "conn", Val: int64(conn.Len())})
	}
}

// node is the search-internal decomposition node.
type node struct {
	lambda   []int
	chi      *bitset.Set
	children []*node
}

func attach(d *decomp.Decomposition, n *node, parent *decomp.Node) {
	dn := d.AddNode(n.chi, parent)
	dn.Lambda = append([]int(nil), n.lambda...)
	for _, c := range n.children {
		attach(d, c, dn)
	}
}

// maxMemoEntries bounds a memo. A full memo starts over: dropping an entry
// only costs re-deriving the same verdict, never correctness.
const maxMemoEntries = 1 << 18

// memo maps a (component, connector) subproblem to its witness subtree; a
// nil subtree records a complete failure. Keys are interned clones with
// Equal-verified hash chains. A memo holds for one budget only, since both
// verdicts depend on it, and each search creates and owns its memos, so
// one goroutine uses a memo.
type memo struct {
	m map[uint64]*memoEntry
	n int
}

type memoEntry struct {
	comp, conn *bitset.Set
	node       *node
	next       *memoEntry
}

// memoHash combines the two hashes asymmetrically, so (a, b) and (b, a)
// land on different keys.
func memoHash(comp, conn *bitset.Set) uint64 {
	return comp.Hash()*0x9e3779b97f4a7c15 ^ conn.Hash()
}

// get returns the subtree recorded for (comp, conn) and whether there is
// an entry; an entry with a nil subtree is a recorded failure.
func (m *memo) get(comp, conn *bitset.Set) (*node, bool) {
	for e := m.m[memoHash(comp, conn)]; e != nil; e = e.next {
		if e.comp.Equal(comp) && e.conn.Equal(conn) {
			return e.node, true
		}
	}
	return nil, false
}

// put records n for (comp, conn); the first entry for a pair is kept.
func (m *memo) put(comp, conn *bitset.Set, n *node) {
	if _, ok := m.get(comp, conn); ok {
		return
	}
	if m.m == nil || m.n >= maxMemoEntries {
		m.m = make(map[uint64]*memoEntry)
		m.n = 0
	}
	hash := memoHash(comp, conn)
	m.m[hash] = &memoEntry{comp: comp.Clone(), conn: conn.Clone(), node: n, next: m.m[hash]}
	m.n++
}

type component struct {
	edges *bitset.Set
	vars  *bitset.Set
}

// components partitions the not-fully-covered edges of comp into
// [sepVars]-connected components.
func (f *frame) components(comp, sepVars *bitset.Set) []component {
	var open []int
	comp.ForEach(func(e int) bool {
		if !f.h.EdgeSet(e).SubsetOf(sepVars) {
			open = append(open, e)
		}
		return true
	})
	assigned := make(map[int]bool, len(open))
	var out []component
	for _, start := range open {
		if assigned[start] {
			continue
		}
		edges := bitset.New(f.h.NumEdges())
		vars := bitset.New(f.h.NumVertices())
		stack := []int{start}
		assigned[start] = true
		for len(stack) > 0 {
			e := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			edges.Add(e)
			free := f.h.EdgeSet(e).Clone()
			free.DifferenceWith(sepVars)
			vars.UnionWith(f.h.EdgeSet(e))
			free.ForEach(func(v int) bool {
				for _, g := range f.h.IncidentEdges(v) {
					if !assigned[g] && comp.Contains(g) {
						assigned[g] = true
						stack = append(stack, g)
					}
				}
				return true
			})
		}
		out = append(out, component{edges: edges, vars: vars})
	}
	return out
}

func (f *frame) varsOfEdges(edges []int) *bitset.Set {
	vars := bitset.New(f.h.NumVertices())
	for _, e := range edges {
		vars.UnionWith(f.h.EdgeSet(e))
	}
	return vars
}

// componentVars returns the union of the component's edge variables.
func (f *frame) componentVars(comp *bitset.Set) *bitset.Set {
	vars := bitset.New(f.h.NumVertices())
	comp.ForEach(func(e int) bool {
		vars.UnionWith(f.h.EdgeSet(e))
		return true
	})
	return vars
}

// candidateEdges lists the edges eligible as separator members: those of
// the component and those touching its variables or the connector.
func (f *frame) candidateEdges(comp, conn, compVars *bitset.Set) []int {
	seen := map[int]bool{}
	var out []int
	add := func(e int) {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	comp.ForEach(func(e int) bool { add(e); return true })
	union := compVars.Clone()
	union.UnionWith(conn)
	union.ForEach(func(v int) bool {
		for _, e := range f.h.IncidentEdges(v) {
			add(e)
		}
		return true
	})
	sort.Ints(out)
	return out
}
