package mem

import (
	"fmt"
	"sync/atomic"
)

// FieldID names a byte range inside a TypeInfo.
type FieldID int

// Field is a named byte range of a kernel structure. Kernel operations
// touch fields, and DProf byte-sharing statistics are computed per field.
type Field struct {
	Name string
	Off  int
	Len  int
}

// TypeInfo describes the layout of one kernel data structure tracked by
// the coherence model (for example tcp_sock, 1664 bytes, Table 4).
type TypeInfo struct {
	Name   string
	Size   int
	Fields []Field

	// id is the dense index of the type's record in every Model.
	id        int
	lines     int
	linesFull int
	// firstLine/lastLine cache the cache-line span of each field.
	firstLine, lastLine []int
}

// typeCount hands out TypeInfo ids.
var typeCount atomic.Int32

// NewType builds a TypeInfo. Fields may overlap lines arbitrarily; they
// must lie within the object. Coherence state is only allocated for the
// line span actually covered by fields (the "tracked" prefix): a 16 KB
// kernel stack whose hot data sits in its first 128 bytes costs two
// tracked lines, while sharing percentages are still reported against
// the full object size — untouched lines are never shared, so the
// denominator is exact either way.
func NewType(name string, size int, fields ...Field) *TypeInfo {
	t := &TypeInfo{
		Name:      name,
		Size:      size,
		Fields:    fields,
		id:        int(typeCount.Add(1) - 1),
		linesFull: (size + CacheLineSize - 1) / CacheLineSize,
	}
	maxEnd := 0
	for _, f := range fields {
		if f.Len <= 0 || f.Off < 0 || f.Off+f.Len > size {
			panic(fmt.Sprintf("mem: field %s.%s out of range", name, f.Name))
		}
		t.firstLine = append(t.firstLine, f.Off/CacheLineSize)
		t.lastLine = append(t.lastLine, (f.Off+f.Len-1)/CacheLineSize)
		if end := f.Off + f.Len; end > maxEnd {
			maxEnd = end
		}
	}
	t.lines = (maxEnd + CacheLineSize - 1) / CacheLineSize
	if t.lines == 0 {
		t.lines = 1
	}
	return t
}

// Lines reports how many cache lines carry coherence state.
func (t *TypeInfo) Lines() int { return t.lines }

// LinesFull reports how many lines the whole object spans (the
// denominator for Table 4's "% of cache lines shared").
func (t *TypeInfo) LinesFull() int { return t.linesFull }

// FieldByName returns the FieldID for a named field, for tests.
func (t *TypeInfo) FieldByName(name string) (FieldID, bool) {
	for i, f := range t.Fields {
		if f.Name == name {
			return FieldID(i), true
		}
	}
	return 0, false
}

// coreMask is a bitmask over cores.
type coreMask [MaxCores / 64]uint64

func (m *coreMask) set(core int)      { m[core>>6] |= 1 << (core & 63) }
func (m *coreMask) has(core int) bool { return m[core>>6]&(1<<(core&63)) != 0 }
func (m *coreMask) clear()            { *m = coreMask{} }

func (m *coreMask) count() int {
	n := 0
	for _, w := range m {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// onlyOther reports whether the mask is empty or contains only the given
// core.
func (m *coreMask) onlySelfOrEmpty(core int) bool {
	for i, w := range m {
		if i == core>>6 {
			w &^= 1 << (core & 63)
		}
		if w != 0 {
			return false
		}
	}
	return true
}

// anyInChipRange reports whether any set bit falls in [lo, hi).
func (m *coreMask) anyInRange(lo, hi int) bool {
	for c := lo; c < hi; c++ {
		if m.has(c) {
			return true
		}
	}
	return false
}

// Line is the coherence state of one cache line of one object.
type Line struct {
	sharers coreMask
	owner   int16 // last writer, -1 if never written
	last    int16 // last accessor, -1 initially
	dirty   bool
	shared  bool // accessed by more than one core over object lifetime
}

// Object is the coherence shadow of one allocated kernel structure.
type Object struct {
	Type      *TypeInfo
	AllocCore int16

	lines []Line
	prof  *objProf // field-level masks; nil unless profiling

	// nextFree links free-list entries inside the allocator.
	nextFree *Object
}

// objProf holds per-object field access masks for DProf byte accounting.
type objProf struct {
	readers []coreMask // per field
	writers []coreMask
}

func (o *Object) reset(core int16, profiling bool) {
	o.AllocCore = core
	for i := range o.lines {
		o.lines[i] = Line{owner: -1, last: -1}
	}
	if profiling {
		if o.prof == nil {
			o.prof = &objProf{
				readers: make([]coreMask, len(o.Type.Fields)),
				writers: make([]coreMask, len(o.Type.Fields)),
			}
		} else {
			for i := range o.prof.readers {
				o.prof.readers[i].clear()
				o.prof.writers[i].clear()
			}
		}
	} else {
		o.prof = nil
	}
}
