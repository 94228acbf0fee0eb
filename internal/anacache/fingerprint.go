package anacache

import (
	"crypto/sha256"
	"sort"

	"deepmc/internal/callgraph"
	"deepmc/internal/ir"
)

// Fingerprints holds the per-function cache keys of one module under one
// analysis configuration.
//
// Each function gets two keys:
//
//   - Trace[f] covers everything that can change f's collected traces or
//     DSA shape: the module's type layouts, the trace-affecting analysis
//     options, and the IR of every function in f's weakly-connected
//     call-graph component.
//   - Verdict[f] additionally covers the verdict-affecting inputs (the
//     persistency model and the enabled-pass-set version), so the same
//     traces re-scanned under a different rule selection miss the
//     verdict tier but still hit the trace tier.
//
// The component granularity is what makes invalidation sound without a
// fine dependency analysis: DSA's top-down phase flows facts from
// callers into callees and the interprocedural trace merge flows traces
// from callees into callers, so a function's results can depend on
// anything reachable over call edges in either direction — exactly its
// weakly-connected component.  Editing one function re-keys its whole
// component and nothing else; fully independent functions keep their
// keys bit for bit.
type Fingerprints struct {
	Trace   map[string]Key
	Verdict map[string]Key
	// Roots lists the functions no function of the module calls, in
	// declaration order: the targets of a root-only check, read off the
	// call graph the components came from.
	Roots []string
}

// version prefixes keep keys from colliding across incompatible schema
// revisions (bump when the hashed layout changes).
const (
	traceKeyVersion   = "anacache-trace-v1"
	verdictKeyVersion = "anacache-verdict-v1"
)

// Fingerprint computes both key maps for m.  traceCfg lists the
// trace-affecting configuration facts (e.g. "allfuncs=true"); verdictCfg
// lists the additional verdict-affecting facts (e.g. "model=strict",
// "passes=<version>").  Both are hashed order-independently (sorted), so
// callers need not maintain a canonical ordering.
//
// Every hash input is rendered into one reused buffer: the bytes, and
// so the keys, are those of hashing each part as its own string.
func Fingerprint(m *ir.Module, traceCfg, verdictCfg []string) *Fingerprints {
	g := callgraph.New(m)
	names := m.FuncNames()

	// Union functions connected by a call edge in either direction.
	parent := make([]int, len(names))
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	fp := &Fingerprints{
		Trace:   make(map[string]Key, len(names)),
		Verdict: make(map[string]Key, len(names)),
	}
	for _, name := range names {
		n := g.Nodes[name]
		for _, out := range n.Outs {
			if ra, rb := find(n.Index), find(out.Index); ra != rb {
				parent[rb] = ra
			}
		}
		if len(n.Ins) == 0 {
			fp.Roots = append(fp.Roots, name)
		}
	}

	// Hash each component once, over its members' canonical IR renderings
	// in declaration order (FuncNames is already the canonical order, so
	// no extra sort is needed for determinism).  next chains each
	// component's members from its root's first member.
	first, last, next := make([]int, len(names)), make([]int, len(names)), make([]int, len(names))
	for i := range names {
		first[i], next[i] = -1, -1
	}
	for i := range names {
		r := find(i)
		if first[r] < 0 {
			first[r] = i
		} else {
			next[last[r]] = i
		}
		last[r] = i
	}
	var buf []byte
	h := sha256.New()
	componentHash := make([]Key, len(names))
	for r, head := range first {
		if head < 0 {
			continue
		}
		h.Reset()
		for i := head; i >= 0; i = next[i] {
			buf = append(append(buf[:0], names[i]...), 0)
			buf = append(ir.AppendFunc(buf, m.Funcs[names[i]]), 0)
			h.Write(buf)
		}
		h.Sum(componentHash[r][:0])
	}

	// Type layouts feed every key: DSA cell structure and the
	// unmodified-field rule depend on them module-wide.
	h.Reset()
	for _, tn := range m.TypeNames() {
		buf = ir.AppendTypeDecl(buf[:0], m.Types[tn])
		h.Write(buf)
	}
	var typesHash Key
	h.Sum(typesHash[:0])

	hashCfg := func(cfg []string) Key {
		s := append([]string(nil), cfg...)
		sort.Strings(s)
		buf = buf[:0]
		for _, e := range s {
			buf = append(append(buf, e...), 0)
		}
		return sha256.Sum256(buf)
	}
	traceCfgHash := hashCfg(traceCfg)
	verdictCfgHash := hashCfg(verdictCfg)

	for i, name := range names {
		comp := componentHash[find(i)]

		buf = append(append(buf[:0], traceKeyVersion...), 0)
		buf = append(append(buf, typesHash[:]...), traceCfgHash[:]...)
		buf = append(append(buf, comp[:]...), name...)
		tk := Key(sha256.Sum256(buf))
		fp.Trace[name] = tk

		buf = append(append(buf[:0], verdictKeyVersion...), 0)
		buf = append(append(buf, tk[:]...), verdictCfgHash[:]...)
		fp.Verdict[name] = sha256.Sum256(buf)
	}
	return fp
}
