// accum.go is the mutable fold core: an open schema accumulator that
// absorbs document types in place and seals to the canonical immutable
// union on demand. Merge/MergeAll (merge.go) remain the reference
// implementation; Accum is the hot-path engine the streamed inference
// fold runs on.

package typelang

import (
	"slices"
	"strings"
)

// Accum is a mutable schema accumulator: the open (non-canonical on
// every step) counterpart of the Merge fold. Absorb folds one canonical
// *Type in without rebuilding the union — records are tracked through a
// sorted field table that is merged in place, union alternatives stay
// pre-classified in per-kind buckets, and counts are bumped on the
// buckets instead of allocating fresh nodes — and Seal produces the
// canonical immutable *Type, byte-identical (same rendering, same
// counts) to folding the same types through MergeAll.
//
// The accumulator exists because the reduce used to dominate the
// allocation profile of streamed inference: every batched MergeAll
// rebuilt the canonical union — fresh alternative slices, re-sorted
// field lists, new nodes — even when the accumulated schema had long
// stopped changing shape. Absorbing into an Accum is allocation-free
// once the schema shape has been seen, and the canonicalisation cost is
// paid once per Seal instead of once per merge.
//
// Inputs must be canonical, exactly as Merge requires: types produced
// by this package's constructors, by Merge/MergeAll, by Seal itself, or
// by the inference map phase. Seal results never alias accumulator
// state or absorbed inputs (other than the shared atom singletons), so
// a sealed type may be published to other goroutines while the
// accumulator keeps absorbing. An Accum itself is not safe for
// concurrent use.
//
// The zero Accum is NOT ready to use; construct with NewAccum so the
// equivalence is explicit.
type Accum struct {
	equiv Equiv

	// gen counts mutations; sealGen/sealed memoise the last Seal so
	// snapshot-heavy callers (collector leaves, the registry) re-seal
	// only after new documents arrived.
	gen     uint64
	sealGen uint64
	sealed  *Type

	node accumNode

	// Direct-absorption staging (absorb.go): the root-array element
	// staging node, the pools of staged field nodes and open records,
	// and the scratch label-key buffer — all retained across documents
	// and Resets so steady-state absorption allocates nothing.
	stageArr *accumNode
	nodePool []*accumNode
	recPool  []*OpenRecord
	keyBuf   []byte
}

// NewAccum returns an empty accumulator folding under equivalence e.
// Sealing it before any Absorb yields Bottom.
func NewAccum(e Equiv) *Accum { return &Accum{equiv: e} }

// Equiv returns the equivalence the accumulator folds under.
func (a *Accum) Equiv() Equiv { return a.equiv }

// Absorb folds one type into the accumulator: the in-place equivalent
// of acc = Merge(acc, t, equiv). t must be canonical; nil and Bottom
// are no-ops.
func (a *Accum) Absorb(t *Type) {
	if t == nil || t.Kind == KBottom {
		return
	}
	a.node.absorb(t, a.equiv)
	a.gen++
}

// Seal returns the canonical type of everything absorbed so far —
// byte-identical to MergeAll over the same types — building fresh
// immutable nodes that never alias accumulator state. Seals are
// memoised: calling Seal repeatedly without intervening Absorbs returns
// the same *Type without rebuilding.
func (a *Accum) Seal() *Type {
	if a.sealed != nil && a.sealGen == a.gen {
		return a.sealed
	}
	a.sealed = a.node.seal(a.equiv)
	a.sealGen = a.gen
	return a.sealed
}

// Reset empties the accumulator for reuse, retaining the bucket and
// field-table storage of the shapes it has seen so a worker absorbing
// similar chunks allocates nothing on the next round. Its cost is
// proportional to the state touched since the last Reset, not to the
// retained storage: only live record groups and live field slots are
// visited (see accumNode.reset for the invariant that makes this
// sound). Previously sealed types remain valid (they never alias
// accumulator state).
func (a *Accum) Reset() {
	a.node.reset()
	if a.stageArr != nil {
		// Defensive: direct absorption aborts its own staging, but a
		// Reset must leave no residue regardless of how the previous
		// round ended.
		a.stageArr.reset()
	}
	a.gen++
	a.sealed = nil
}

// Empty reports whether anything has been absorbed since construction
// or the last Reset.
func (a *Accum) Empty() bool { return a.node.empty() }

// accumNode is one level of accumulator state: the union alternatives
// kept pre-classified by kind, mirroring the buckets canonical()
// rebuilds on every merge. Atoms are presence flags plus counts; the
// array bucket and record groups recurse.
type accumNode struct {
	// total is the sum of the top-level counts of every absorbed
	// alternative — the count of the sealed union, and of the sealed Any
	// when an Any alternative collapsed the node.
	total int64

	haveAny  bool
	haveNull bool
	haveBool bool
	haveInt  bool
	haveNum  bool
	haveStr  bool

	nullCount int64
	boolCount int64
	intCount  int64
	numCount  int64
	strCount  int64

	arr *arrayAccum

	// recs are the record groups: exactly one under K (records always
	// fuse); one per label set under L, sorted by label key at seal.
	// Lookup on absorb is a linear scan while the groups are few (the
	// common case; the scan is cheap — label sets differ in length most
	// of the time, and equal field names are pointer-equal when the map
	// phase interns them) and switches to recIndex, a label-key map,
	// past smallRecordGroups — the hashed grouping the reference fold
	// uses, so high-cardinality L data stays linear in documents instead
	// of going quadratic in groups.
	//
	// recs[:live] are the live groups (nrecs > 0); recs[live:] are dead
	// groups retained across a reset. A dead group holds only clean
	// storage: use moves a group into the live prefix before its nrecs
	// is bumped and before anything below it is written, so reset, seal
	// and absorbNode visit the live prefix and never the history.
	recs     []*recordAccum
	live     int
	recIndex map[string]*recordAccum
}

// smallRecordGroups bounds the linear group scan under L: below it the
// scan beats paying a label-key allocation per absorbed record; above
// it the map keeps group lookup O(fields) no matter how many label
// sets the data holds.
const smallRecordGroups = 16

// arrayAccum accumulates the array alternatives of one node: arrays
// always fuse (both equivalences act on records), so this is one count,
// the observed length bounds, and the element-collection accumulator.
//
// live marks a bucket written since the last reset. Every write path
// sets it first (accumNode.array), including the direct path whose
// elements land in elem before EndArray bumps n, so a bucket with live
// unset holds only clean storage and reset skips it.
type arrayAccum struct {
	n              int // arrays absorbed; 0 marks the bucket inactive after a reset
	count          int64
	minLen, maxLen int
	live           bool
	elem           accumNode
}

// recordAccum accumulates one record group: the field table kept sorted
// by name and merged in place, the record count, and how many records
// were absorbed (nrecs — the denominator of the optionality rule: a
// field absent from any absorbed record is optional).
//
// A slot with seenIn == 0 holds only clean storage: enter bumps seenIn
// before anything below the slot is written. Under L a live group's
// table is exactly its label set (see sameLabels), so every slot is
// live while the group is. Under K (partial) the table is the union of
// every name the group has seen, and liveSlots indexes the slots with
// seenIn > 0 in activation order (sortLive restores table order for
// the walks that need it). reset, seal and absorbAccum visit the live
// slots only (liveLen/liveAt), never the dead remainder of a K table,
// however many names it has accumulated.
type recordAccum struct {
	key       string // label key, built lazily for the seal ordering
	keyValid  bool
	partial   bool // K group: slots may be dead while the group is live
	pos       int  // index in the owning node's recs
	nrecs     int
	count     int64
	fields    []fieldAccum
	liveSlots []int32 // partial groups only
}

// fieldAccum is one field slot of a record group. seenIn counts the
// absorbed records containing the field; after a Reset a slot with
// seenIn == 0 is dead storage kept only so the next round can reuse it.
type fieldAccum struct {
	name     string
	count    int64
	optional bool
	seenIn   int
	node     accumNode
}

func (n *accumNode) absorb(t *Type, e Equiv) {
	if t == nil {
		return
	}
	if t.Kind == KUnion {
		for _, alt := range t.Alts {
			n.absorb(alt, e)
		}
		return
	}
	if t.Kind == KBottom {
		return
	}
	n.total += t.Count
	if n.haveAny {
		// Any absorbs everything; only the count matters from here on.
		return
	}
	switch t.Kind {
	case KAny:
		n.haveAny = true
	case KNull:
		n.haveNull = true
		n.nullCount += t.Count
	case KBool:
		n.haveBool = true
		n.boolCount += t.Count
	case KInt:
		n.haveInt = true
		n.intCount += t.Count
	case KNum:
		n.haveNum = true
		n.numCount += t.Count
	case KStr:
		n.haveStr = true
		n.strCount += t.Count
	case KArray:
		n.array().absorb(t, e)
	case KRecord:
		n.recordGroup(t, e).absorb(t, e)
	}
}

func (a *arrayAccum) absorb(t *Type, e Equiv) {
	if a.n == 0 {
		a.minLen, a.maxLen = t.MinLen, t.MaxLen
	} else {
		if t.MinLen < a.minLen {
			a.minLen = t.MinLen
		}
		if t.MaxLen == -1 || a.maxLen == -1 {
			a.maxLen = -1
		} else if t.MaxLen > a.maxLen {
			a.maxLen = t.MaxLen
		}
	}
	a.n++
	a.count += t.Count
	a.elem.absorb(t.Elem, e)
}

// recordGroup finds (or creates) the group record t fuses into: the
// single group under K, the group with t's label set under L.
func (n *accumNode) recordGroup(t *Type, e Equiv) *recordAccum {
	if e == EquivKind {
		return n.use(n.kindGroup())
	}
	if n.recIndex != nil {
		key := labelKey(t)
		if ra := n.recIndex[key]; ra != nil {
			return n.use(ra)
		}
		return n.use(n.newGroup(key))
	}
	for _, ra := range n.recs {
		if ra.sameLabels(t.Fields) {
			return n.use(ra)
		}
	}
	// New group: its key is the incoming record's label set (the field
	// table is still empty; absorb fills it right after).
	return n.use(n.newGroup(labelKey(t)))
}

// kindGroup returns the single record group of a node under K,
// creating it on first use.
func (n *accumNode) kindGroup() *recordAccum {
	if len(n.recs) == 0 {
		n.recs = append(n.recs, &recordAccum{partial: true})
	}
	return n.recs[0]
}

// newGroup appends an empty group with the given label key, switching
// the node to hashed lookup once it holds more than smallRecordGroups.
func (n *accumNode) newGroup(key string) *recordAccum {
	ra := &recordAccum{key: key, keyValid: true, pos: len(n.recs)}
	n.recs = append(n.recs, ra)
	if n.recIndex != nil {
		n.recIndex[key] = ra
	} else if len(n.recs) > smallRecordGroups {
		n.recIndex = make(map[string]*recordAccum, 2*len(n.recs))
		for _, g := range n.recs {
			n.recIndex[g.labelKey()] = g
		}
	}
	return ra
}

// use marks ra, a group of n about to absorb records, live: a dead
// group is swapped into the live prefix recs[:live]. Every group lookup
// ends here, before the caller bumps nrecs.
func (n *accumNode) use(ra *recordAccum) *recordAccum {
	if ra.pos >= n.live {
		other := n.recs[n.live]
		n.recs[ra.pos], n.recs[n.live] = other, ra
		other.pos, ra.pos = ra.pos, n.live
		n.live++
	}
	return ra
}

// array returns the node's array bucket, creating it on first use and
// marking it live; every write into the bucket goes through here first.
func (n *accumNode) array() *arrayAccum {
	if n.arr == nil {
		n.arr = &arrayAccum{}
	}
	n.arr.live = true
	return n.arr
}

// sameLabels reports whether the group's label set equals the given
// (name-sorted) field list's. Under L a group's field table holds
// exactly its label set, even across a Reset: a reset group is only
// ever recycled by a record matching its full retained name set (an
// exact match marks every slot live again), so an L group never holds a
// dead slot while it has absorbed records, and the straight aligned
// walk below compares the label set either way.
func (ra *recordAccum) sameLabels(fields []Field) bool {
	if len(ra.fields) != len(fields) {
		return false
	}
	for i := range fields {
		if ra.fields[i].name != fields[i].Name {
			return false
		}
	}
	return true
}

// absorb merges one record into the group: a sorted merge walk over the
// in-place field table. New names insert into the table (rare once the
// shape has been seen); existing slots just bump counts and recurse.
func (ra *recordAccum) absorb(t *Type, e Equiv) {
	ra.nrecs++
	ra.count += t.Count
	i := 0
	prev := ""
	for j := range t.Fields {
		f := &t.Fields[j]
		if j > 0 && f.Name < prev {
			// Non-canonical (unsorted) input: restart the walk so the
			// table stays sorted and duplicate-free regardless.
			i = 0
		}
		prev = f.Name
		fa, k := ra.enter(i, f.Name, 1)
		fa.count += f.Count
		fa.optional = fa.optional || f.Optional
		fa.node.absorb(f.Type, e)
		i = k + 1
	}
}

// enter is one step of the sorted merge walks: it seeks name from
// cursor i, inserts a slot in sorted position when the table lacks the
// name, adds seen to the slot's seenIn (recording a dead slot in
// liveSlots first) and returns the slot with its index. The caller
// resumes the walk at the index + 1. The returned pointer is valid
// until the next enter on the same group.
func (ra *recordAccum) enter(i int, name string, seen int) (*fieldAccum, int) {
	i = seekField(ra.fields, i, name)
	if i == len(ra.fields) {
		ra.fields = append(ra.fields, fieldAccum{name: name})
		ra.keyValid = false
	} else if ra.fields[i].name != name {
		// A slot inserted mid-table shifts the slots after it.
		ra.fields = slices.Insert(ra.fields, i, fieldAccum{name: name})
		ra.keyValid = false
		for k, s := range ra.liveSlots {
			if int(s) >= i {
				ra.liveSlots[k] = s + 1
			}
		}
	}
	fa := &ra.fields[i]
	if fa.seenIn == 0 && ra.partial {
		ra.liveSlots = append(ra.liveSlots, int32(i))
	}
	fa.seenIn += seen
	return fa, i
}

// seekField returns the first index k >= i with fs[k].name >= name, or
// len(fs). It gallops from the cursor — probing i, i+2, i+5, i+10, …
// with the gap doubling — until a probe lands at or past name, then
// binary-searches the last gap. A slot d places ahead costs
// O(log d) comparisons, so a dense walk (the next name is at or next to
// the cursor) stays linear while a sparse one, a few names merged into
// a wide table, costs O(names · log table) instead of O(table).
func seekField(fs []fieldAccum, i int, name string) int {
	lo, hi, gap := i, i, 1
	cmps := 0
	for hi < len(fs) {
		cmps++
		if fs[hi].name >= name {
			break
		}
		lo = hi + 1
		hi = lo + gap
		gap <<= 1
	}
	// Every slot below lo sorts before name; fs[hi] (when in range)
	// does not.
	hi = min(hi, len(fs))
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		cmps++
		if fs[m].name < name {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if probe != nil {
		probe.seekCompares += int64(cmps)
		probe.seeks++
	}
	return lo
}

// sortLive puts liveSlots in table order, for the walks that must visit
// live slots by name. When at least a quarter of the table is live (a
// chunk's worth of sparse documents), collecting the live slots in one
// pass over the table is cheaper than sorting their indices, and still
// costs at most four visits per live slot.
func (ra *recordAccum) sortLive() {
	if slices.IsSorted(ra.liveSlots) {
		return
	}
	if 4*len(ra.liveSlots) >= len(ra.fields) {
		ra.liveSlots = ra.liveSlots[:0]
		for i := range ra.fields {
			if ra.fields[i].seenIn > 0 {
				ra.liveSlots = append(ra.liveSlots, int32(i))
			}
		}
		return
	}
	slices.Sort(ra.liveSlots)
}

// liveLen and liveAt enumerate the live slots of a live group, in
// liveSlots order for a partial (K) group and in table order otherwise.
func (ra *recordAccum) liveLen() int {
	if ra.partial {
		return len(ra.liveSlots)
	}
	return len(ra.fields)
}

func (ra *recordAccum) liveAt(k int) *fieldAccum {
	if ra.partial {
		return &ra.fields[ra.liveSlots[k]]
	}
	return &ra.fields[k]
}

// labelKey renders the group's label set exactly as merge.go's labelKey
// does — for the canonical union ordering at seal, and as the recIndex
// key. It covers every slot in the field table: under L (the only
// equivalence that uses keys) the table is exactly the label set even
// across a Reset, because a reset group is only ever recycled by its
// exact label set.
func (ra *recordAccum) labelKey() string {
	if !ra.keyValid {
		var b strings.Builder
		for i := range ra.fields {
			if i > 0 {
				b.WriteByte(0)
			}
			b.WriteString(ra.fields[i].name)
		}
		ra.key = b.String()
		ra.keyValid = true
	}
	return ra.key
}

func (n *accumNode) empty() bool {
	if n.haveAny || n.haveNull || n.haveBool || n.haveInt || n.haveNum || n.haveStr {
		return false
	}
	if n.arr != nil && n.arr.n > 0 {
		return false
	}
	return n.live == 0
}

// seal builds the canonical type of the node: the same buckets, in the
// same canonical alternative order, with the same counts, as canonical()
// produces when MergeAll folds the absorbed types.
func (n *accumNode) seal(e Equiv) *Type {
	if n.haveAny {
		return &Type{Kind: KAny, Count: n.total}
	}
	active := n.live
	nalts := active
	if n.haveNull {
		nalts++
	}
	if n.haveBool {
		nalts++
	}
	if n.haveInt || n.haveNum {
		nalts++
	}
	if n.haveStr {
		nalts++
	}
	if n.arr != nil && n.arr.n > 0 {
		nalts++
	}
	if nalts == 0 {
		return Bottom
	}
	out := make([]*Type, 0, nalts)
	if n.haveNull {
		out = append(out, &Type{Kind: KNull, Count: n.nullCount})
	}
	if n.haveBool {
		out = append(out, &Type{Kind: KBool, Count: n.boolCount})
	}
	// Num absorbs Int: Int values are Num values, so Int + Num = Num.
	switch {
	case n.haveNum:
		out = append(out, &Type{Kind: KNum, Count: n.intCount + n.numCount})
	case n.haveInt:
		out = append(out, &Type{Kind: KInt, Count: n.intCount})
	}
	if n.haveStr {
		out = append(out, &Type{Kind: KStr, Count: n.strCount})
	}
	if active > 1 {
		// Canonical order is by label key. Group order inside the live
		// prefix is otherwise free, so the prefix is sorted in place.
		groups := n.recs[:active]
		slices.SortFunc(groups, func(a, b *recordAccum) int {
			return strings.Compare(a.labelKey(), b.labelKey())
		})
		for k, ra := range groups {
			ra.pos = k
		}
	}
	for _, ra := range n.recs[:active] {
		out = append(out, ra.seal(e))
	}
	if n.arr != nil && n.arr.n > 0 {
		out = append(out, n.arr.seal(e))
	}
	if len(out) == 1 {
		return out[0]
	}
	return &Type{Kind: KUnion, Alts: out, Count: n.total}
}

func (ra *recordAccum) seal(e Equiv) *Type {
	ra.sortLive()
	var fields []Field
	if n := ra.liveLen(); n > 0 {
		fields = make([]Field, 0, n)
	}
	for k := range ra.liveLen() {
		fa := ra.liveAt(k)
		fields = append(fields, Field{
			Name:     fa.name,
			Type:     fa.node.seal(e),
			Optional: fa.optional || fa.seenIn < ra.nrecs,
			Count:    fa.count,
		})
	}
	// The field table is kept sorted and duplicate-free, so no re-sort:
	// the slice is already in NewRecord's canonical order.
	return &Type{Kind: KRecord, Fields: fields, Count: ra.count}
}

func (a *arrayAccum) seal(e Equiv) *Type {
	elem := Bottom
	if !a.elem.empty() {
		elem = a.elem.seal(e)
	}
	return &Type{Kind: KArray, Elem: elem, Count: a.count, MinLen: a.minLen, MaxLen: a.maxLen}
}

// reset clears the node for reuse in place: atom buckets zero, the
// array bucket and the live record groups reset recursively, all
// storage — field tables, group lists, nested nodes — retained. Keeping
// the group tables is the reuse payoff: a worker absorbing the next
// chunk (or the next document's arrays) of the same shapes allocates
// nothing at all.
//
// The cost is O(touched), not O(retained): reset visits the array
// bucket only when it is live, the groups in the live prefix recs[:live]
// and, inside each, only the live slots. That rests on the
// clean-storage invariant kept by every write path (use, enter,
// array): a group, slot or array bucket is marked live before its
// counts are bumped or anything below it is written, so whatever is
// not marked live holds no state to clear. Pooled staging nodes keep
// every shape they ever staged, and a walk over all of it used to
// dominate the streamed map phase.
func (n *accumNode) reset() {
	if probe != nil {
		probe.resetVisits++
	}
	n.total = 0
	n.haveAny, n.haveNull, n.haveBool, n.haveInt, n.haveNum, n.haveStr = false, false, false, false, false, false
	n.nullCount, n.boolCount, n.intCount, n.numCount, n.strCount = 0, 0, 0, 0, 0
	if a := n.arr; a != nil && a.live {
		a.n = 0
		a.count = 0
		a.minLen, a.maxLen = 0, 0
		a.live = false
		a.elem.reset()
	}
	for _, ra := range n.recs[:n.live] {
		ra.reset()
	}
	n.live = 0
}

func (ra *recordAccum) reset() {
	if probe != nil {
		probe.resetVisits++
	}
	ra.nrecs = 0
	ra.count = 0
	for k := range ra.liveLen() {
		fa := ra.liveAt(k)
		fa.count = 0
		fa.optional = false
		fa.seenIn = 0
		fa.node.reset()
	}
	ra.liveSlots = ra.liveSlots[:0]
}

// probe, when non-nil, counts accumulator work for the complexity
// tests (export_test.go): node and group visits made by reset, and the
// comparisons made by seekField. It is nil outside those tests, which
// set it only while no other goroutine uses an accumulator.
var probe *workProbe

type workProbe struct {
	resetVisits  int64
	seeks        int64
	seekCompares int64
}
