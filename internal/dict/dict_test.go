package dict

import (
	"testing"
	"testing/quick"
)

func TestIDAssignment(t *testing.T) {
	d := New()
	a := d.ID("apple")
	b := d.ID("banana")
	if a == b {
		t.Fatal("distinct names share an id")
	}
	if got := d.ID("apple"); got != a {
		t.Errorf("re-lookup of apple = %d, want %d", got, a)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	if d.Name(a) != "apple" || d.Name(b) != "banana" {
		t.Error("Name does not invert ID")
	}
}

func TestIDsAreDense(t *testing.T) {
	d := New()
	for i := 0; i < 100; i++ {
		id := d.ID(string(rune('a' + i)))
		if id != int32(i) {
			t.Fatalf("id %d assigned for insertion %d", id, i)
		}
	}
}

func TestLookup(t *testing.T) {
	d := New()
	d.ID("x")
	if _, ok := d.Lookup("x"); !ok {
		t.Error("Lookup(x) missed")
	}
	if _, ok := d.Lookup("y"); ok {
		t.Error("Lookup(y) found unassigned name")
	}
	if _, ok := d.LookupBytes([]byte("y")); ok {
		t.Error("LookupBytes(y) found unassigned name")
	}
	if d.Len() != 1 {
		t.Error("Lookup must not assign")
	}
	// The byte forms resolve known names without allocating and assign new
	// ones exactly as ID does.
	x := []byte("x")
	if n := testing.AllocsPerRun(10, func() { d.IDBytes(x); d.LookupBytes(x) }); n != 0 {
		t.Errorf("known-name byte lookups allocate %.0f times", n)
	}
	if id, ok := d.LookupBytes(x); !ok || id != d.IDBytes(x) || id != d.ID("x") {
		t.Error("byte lookups disagree with ID")
	}
	if id := d.IDBytes([]byte("y")); id != 1 || d.Name(id) != "y" {
		t.Errorf("IDBytes(y) = %d, want new ID 1 named y", id)
	}
}

func TestNamePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Name of unknown id did not panic")
		}
	}()
	New().Name(3)
}

func TestCloneIndependence(t *testing.T) {
	d := New()
	d.ID("a")
	c := d.Clone()
	c.ID("b")
	if d.Len() != 1 || c.Len() != 2 {
		t.Errorf("clone not independent: orig %d, clone %d", d.Len(), c.Len())
	}
	if c.Name(0) != "a" {
		t.Error("clone lost original entries")
	}
}

func TestSortedNames(t *testing.T) {
	d := New()
	for _, n := range []string{"pear", "apple", "mango"} {
		d.ID(n)
	}
	got := d.SortedNames()
	want := []string{"apple", "mango", "pear"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedNames = %v", got)
		}
	}
	// Names() stays in id order.
	if d.Names()[0] != "pear" {
		t.Error("Names not in id order")
	}
}

// Property: ID is idempotent and Name inverts it.
func TestRoundTripProperty(t *testing.T) {
	d := New()
	f := func(name string) bool {
		id := d.ID(name)
		return d.ID(name) == id && d.Name(id) == name
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
