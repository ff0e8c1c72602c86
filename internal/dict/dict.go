// Package dict provides the shared string↔ID dictionary used by the taxonomy
// and transaction-database substrates. Every item — leaf or internal taxonomy
// node — owns exactly one int32 identifier, assigned densely from zero so
// that per-item tables can be plain slices.
package dict

import (
	"fmt"
	"sort"
)

// Dictionary maps item names to dense int32 identifiers and back. The zero
// value is not usable; construct with New. A Dictionary is not safe for
// concurrent mutation; the mining engine treats it as read-only after load.
type Dictionary struct {
	names []string
	ids   map[string]int32
}

// New returns an empty dictionary.
func New() *Dictionary {
	return &Dictionary{ids: make(map[string]int32)}
}

// ID returns the identifier for name, assigning the next free identifier if
// name has not been seen before.
func (d *Dictionary) ID(name string) int32 {
	if id, ok := d.ids[name]; ok {
		return id
	}
	id := int32(len(d.names))
	d.names = append(d.names, name)
	d.ids[name] = id
	return id
}

// IDBytes is ID for a name held in a byte slice: a known name resolves
// without allocating, and only a new name is copied into a string.
func (d *Dictionary) IDBytes(name []byte) int32 {
	if id, ok := d.ids[string(name)]; ok {
		return id
	}
	return d.ID(string(name))
}

// Lookup returns the identifier for name without assigning a new one.
func (d *Dictionary) Lookup(name string) (int32, bool) {
	id, ok := d.ids[name]
	return id, ok
}

// LookupBytes is Lookup for a name held in a byte slice; it never allocates.
func (d *Dictionary) LookupBytes(name []byte) (int32, bool) {
	id, ok := d.ids[string(name)]
	return id, ok
}

// Name returns the name owning id. It panics when id was never assigned,
// because that always indicates corrupted caller state rather than user input.
func (d *Dictionary) Name(id int32) string {
	if id < 0 || int(id) >= len(d.names) {
		panic(fmt.Sprintf("dict: unknown id %d (have %d)", id, len(d.names)))
	}
	return d.names[id]
}

// Len returns the number of assigned identifiers.
func (d *Dictionary) Len() int { return len(d.names) }

// Names returns a copy of all names ordered by identifier.
func (d *Dictionary) Names() []string {
	out := make([]string, len(d.names))
	copy(out, d.names)
	return out
}

// SortedNames returns all names in lexicographic order; handy for
// deterministic output in tools and tests.
func (d *Dictionary) SortedNames() []string {
	out := d.Names()
	sort.Strings(out)
	return out
}

// Clone returns an independent copy of the dictionary.
func (d *Dictionary) Clone() *Dictionary {
	c := New()
	c.names = append(c.names, d.names...)
	for name, id := range d.ids {
		c.ids[name] = id
	}
	return c
}
