package txdb

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/flipper-mining/flipper/internal/dict"
)

// FuzzReadBaskets: arbitrary input must never panic, the block-parallel
// parse must equal the one-block and the serial parse, and every
// successfully parsed database must round-trip (write → re-read → identical
// widths and names) whenever its names are writable. known picks how many
// of the input's names the dictionary holds before the parse, so the
// parallel parse meets its first unknown name anywhere; block picks the
// block size.
func FuzzReadBaskets(f *testing.F) {
	f.Add("beer, diapers\nmilk\n-\n", uint8(3), uint8(4))
	f.Add("# comment\n\n", uint8(0), uint8(1))
	f.Add("a,b,c\na\n", uint8(2), uint8(3))
	f.Add("x", uint8(1), uint8(1))
	f.Add("a, b\r\n-\r\n\r\n# c, d\r\nb, e\r\nf", uint8(4), uint8(5))
	f.Add("a,b\nc\nd,,e\nf\n", uint8(9), uint8(2))
	f.Fuzz(func(t *testing.T, input string, known, block uint8) {
		d := dict.New()
		names := basketNames(input)
		for i := int(known) % (len(names) + 1); i > 0; i-- {
			d.ID(names[i-1])
		}
		checkParsesAgree(t, input, nil, d, []int{1 + int(block)%64})

		db, err := ReadBaskets(strings.NewReader(input), nil)
		if err != nil {
			return // malformed input rejected is fine
		}
		var sb strings.Builder
		if err := db.WriteBaskets(&sb); err != nil {
			return // names unrepresentable in the format
		}
		back, err := ReadBaskets(strings.NewReader(sb.String()), nil)
		if err != nil {
			t.Fatalf("re-read of own output failed: %v\noutput: %q", err, sb.String())
		}
		if back.Len() != db.Len() {
			t.Fatalf("round trip changed transaction count %d -> %d", db.Len(), back.Len())
		}
		for i := 0; i < db.Len(); i++ {
			a, b := db.Tx(i), back.Tx(i)
			if a.K() != b.K() {
				t.Fatalf("tx %d width %d -> %d", i, a.K(), b.K())
			}
			for j := range a {
				if db.Dict().Name(a[j]) != back.Dict().Name(b[j]) {
					t.Fatalf("tx %d item %d name changed", i, j)
				}
			}
		}
	})
}

// basketNames returns the item names of the basket text in order of first
// appearance, read the way the parser reads them.
func basketNames(input string) []string {
	var names []string
	seen := map[string]bool{}
	for _, line := range strings.Split(input, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line == "-" || line[0] == '#' {
			continue
		}
		for _, name := range strings.Split(line, ",") {
			if name = strings.TrimSpace(name); name != "" && !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	return names
}

// checkParsesAgree parses input serially, as one block, and in blocks of
// each given size on 2 and 3 workers, each against its own copy of d and
// through wrap (nil for none), and requires every parse to give the serial
// parse's transactions, dictionary and error text.
func checkParsesAgree(t *testing.T, input string, wrap func(io.Reader) io.Reader, d *dict.Dictionary, sizes []int) {
	t.Helper()
	parse := func(size, workers int) (*DB, *dict.Dictionary, error) {
		dc := d.Clone()
		var r io.Reader = strings.NewReader(input)
		if wrap != nil {
			r = wrap(r)
		}
		db, err := readBaskets(r, dc, size, workers)
		return db, dc, err
	}
	want, wantDict, wantErr := parse(basketBlock, 1)
	type run struct{ size, workers int }
	runs := []run{{len(input) + 1, 2}}
	for _, size := range sizes {
		runs = append(runs, run{size, 2}, run{size, 3})
	}
	for _, r := range runs {
		got, gotDict, err := parse(r.size, r.workers)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("blocks of %d on %d workers: error %v, serial parse %v", r.size, r.workers, err, wantErr)
		}
		if !slices.Equal(gotDict.Names(), wantDict.Names()) {
			t.Fatalf("blocks of %d on %d workers: dictionary %q, serial parse %q", r.size, r.workers, gotDict.Names(), wantDict.Names())
		}
		if err != nil {
			continue
		}
		if got.Len() != want.Len() {
			t.Fatalf("blocks of %d on %d workers: %d transactions, serial parse %d", r.size, r.workers, got.Len(), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			if !got.Tx(i).Equal(want.Tx(i)) {
				t.Fatalf("blocks of %d on %d workers: transaction %d is %v, serial parse %v", r.size, r.workers, i, got.Tx(i), want.Tx(i))
			}
		}
	}
}

func TestWriteBasketsRejectsUnrepresentableNames(t *testing.T) {
	cases := [][]string{
		{"has,comma"},
		{"has\nnewline"},
		{"#comment-like"},
		{" padded "},
		{"-"},
	}
	for _, names := range cases {
		db := New(nil)
		db.AddNames(names...)
		var sb strings.Builder
		if err := db.WriteBaskets(&sb); err == nil {
			t.Errorf("name %q serialized without error", names[0])
		}
	}
}

// TestReadBasketsBlocksMatchSerial cuts inputs whose names the dictionary
// mostly knows into blocks of every size from 1 to 48 bytes and requires
// the block-parallel parse to equal the serial one: unknown names in the
// first, a middle and the last block, a malformed line in a late block, a
// line longer than a block, CRLF endings, no trailing newline, comment,
// "-" and blank lines on block edges, short reads and a read error.
func TestReadBasketsBlocksMatchSerial(t *testing.T) {
	lines := make([]string, 12)
	for i := range lines {
		lines[i] = fmt.Sprintf("n%d, n%d, n%d", i%10, (i+3)%10, (i+7)%10)
	}
	with := func(i int, line string) string {
		ls := slices.Clone(lines)
		ls[i] = line
		return strings.Join(ls, "\n") + "\n"
	}
	long := make([]string, 30)
	for i := range long {
		long[i] = fmt.Sprintf("n%d", i%10)
	}
	edges := "# head\n-\n\nn1, n2\n# c\n-\n\n\nn3\n-\n#\n\nn4, n5, n6\n\n-\n# tail"
	boom := errors.New("disk gone")
	cases := []struct {
		name, input string
		wrap        func(io.Reader) io.Reader
		wantErr     string
	}{
		{name: "known names", input: with(0, lines[0])},
		{name: "unknown name in the first block", input: with(0, "n1, zz, n2")},
		{name: "unknown name in a middle block", input: with(6, "zz, n4")},
		{name: "unknown name in the last block", input: with(11, "n4, zz")},
		{name: "malformed line in a late block", input: with(10, "n1,,n2"), wantErr: "txdb: line 11: empty item name"},
		{name: "line longer than a block", input: with(5, strings.Join(long, ", "))},
		{name: "CRLF without a trailing newline", input: strings.ReplaceAll(strings.Join(lines, "\n"), "\n", "\r\n")},
		{name: "comment, dash and blank lines on block edges", input: edges},
		{name: "short reads", input: with(7, "zz"), wrap: iotest.OneByteReader},
		{name: "read error", input: strings.Join(lines, "\n"), wrap: func(r io.Reader) io.Reader {
			return io.MultiReader(r, iotest.ErrReader(boom))
		}, wantErr: "txdb: read: disk gone"},
	}
	sizes := make([]int, 48)
	for i := range sizes {
		sizes[i] = i + 1
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := dict.New()
			for i := 0; i < 10; i++ {
				d.ID(fmt.Sprintf("n%d", i))
			}
			checkParsesAgree(t, c.input, c.wrap, d, sizes)
			r := io.Reader(strings.NewReader(c.input))
			if c.wrap != nil {
				r = c.wrap(r)
			}
			got := ""
			if _, err := readBaskets(r, d, basketBlock, 1); err != nil {
				got = err.Error()
			}
			if got != c.wantErr {
				t.Fatalf("serial parse: error %q, want %q", got, c.wantErr)
			}
		})
	}
}

// TestParseBlocksParsesKnownInputInParallel checks that with every name
// known, the blocks cover the whole input and leave nothing to the serial
// parse, and that an unknown name hands the serial parse exactly the input
// from its block on.
func TestParseBlocksParsesKnownInputInParallel(t *testing.T) {
	d := dict.New()
	for _, n := range []string{"a", "b", "c"} {
		d.ID(n)
	}
	input := strings.Repeat("a, b\nc\n# x\n", 40)
	parts, lines, rest := parseBlocks(strings.NewReader(input), d, 16, 2)
	tail, _ := io.ReadAll(rest)
	txs := 0
	for _, p := range parts {
		txs += len(p.ends)
	}
	if len(parts) < 2 || lines != 120 || txs != 80 || len(tail) != 0 {
		t.Fatalf("known input: %d blocks, %d lines, %d transactions, %d bytes left; want ≥ 2 blocks, 120, 80, 0", len(parts), lines, txs, len(tail))
	}
	unknown := input + "zz\n" + input
	_, lines, rest = parseBlocks(strings.NewReader(unknown), d, 16, 2)
	tail, _ = io.ReadAll(rest)
	head, ok := strings.CutSuffix(unknown, string(tail))
	// The serial parse starts at the first line of the block naming zz, on
	// line 121: a 16-byte block holds at most a few lines.
	if !ok || strings.Count(head, "\n") != lines || !strings.HasSuffix(head, "\n") || lines < 115 || lines > 120 {
		t.Fatalf("unknown name: %d lines parsed, serial parse gets %q", lines, tail)
	}
	if d.Len() != 3 {
		t.Fatalf("the parallel parse wrote to the dictionary: %q", d.Names())
	}
}
