package txdb

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"

	"github.com/flipper-mining/flipper/internal/dict"
	"github.com/flipper-mining/flipper/internal/itemset"
)

// The basket text format is one transaction per line, item names separated
// by commas (names may contain spaces, e.g. "canned beer"). Blank lines are
// empty transactions unless they are comments ('#' prefix); a lone "-"
// denotes an explicitly empty transaction for round-trip fidelity.

// ReadBaskets parses the basket format from r into an in-memory DB, writing
// IDs through d (nil for a fresh dictionary). The input is read in
// line-aligned blocks parsed on GOMAXPROCS goroutines with read-only
// dictionary lookups, each into its own ID arena, which the database's
// transactions alias through capped slices. From the first block naming an
// item the dictionary lacks, or holding a line that fails to parse, the rest
// of the input is parsed serially, so IDs are assigned in input order and
// errors name the same line as a serial parse would.
func ReadBaskets(r io.Reader, d *dict.Dictionary) (*DB, error) {
	return readBaskets(r, d, basketBlock, runtime.GOMAXPROCS(0))
}

// basketBlock is the size of the blocks ReadBaskets parses in parallel:
// enough lines to dwarf the hand-off of a block between goroutines, few
// enough that a file of a few blocks still spreads over the workers.
const basketBlock = 64 << 10

// readBaskets is ReadBaskets over blocks of about size bytes on workers
// goroutines; one worker parses serially.
func readBaskets(r io.Reader, d *dict.Dictionary, size, workers int) (*DB, error) {
	db := New(d)
	var parts []arenaPart
	line := 0
	if workers > 1 {
		parts, line, r = parseBlocks(r, db.dict, size, workers)
	}
	p := lineParser{dict: db.dict, line: line}
	sc := newLineScanner(r)
	var tail arenaPart
	for sc.Scan() {
		var comment bool
		var err error
		tail.ids, comment, err = p.parse(tail.ids, sc.Bytes())
		if err != nil {
			return nil, fmt.Errorf("txdb: %w", err)
		}
		if !comment {
			tail.ends = append(tail.ends, len(tail.ids))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("txdb: read: %w", err)
	}
	n := len(tail.ends)
	for _, part := range parts {
		n += len(part.ends)
	}
	db.tx = make([]itemset.Set, 0, n)
	for _, part := range append(parts, tail) {
		lo := 0
		for _, hi := range part.ends {
			var tx itemset.Set
			if hi > lo {
				tx = part.ids[lo:hi:hi]
			}
			db.tx = append(db.tx, tx)
			lo = hi
		}
	}
	return db, nil
}

// arenaPart is a run of parsed transactions: their items back to back in
// one arena, transaction i ending at ends[i].
type arenaPart struct {
	ids  []itemset.ID
	ends []int
}

// block is one line-aligned piece of the input on its way through
// parseBlocks.
type block struct {
	buf    []byte
	part   arenaPart
	lines  int  // lines in buf, set once parsed
	serial bool // buf needs the serial parse: see parseBlocks
	done   chan struct{}
}

// parseBlocks parses r's blocks on workers goroutines, in input order, and
// stops at the first block that needs the serial parse: one naming an item
// d lacks (a serial parse assigns new IDs in input order), one with a line
// that fails to parse, one ending inside a line longer than maxLine, or one
// cut short by a read error. It waits for every block in flight, then
// returns the blocks parsed before that one, the number of lines they hold,
// and a reader replaying the input from that block's first line on. d is
// only read while blocks are in flight.
func parseBlocks(r io.Reader, d *dict.Dictionary, size, workers int) ([]arenaPart, int, io.Reader) {
	in := blockReader{r: r, size: size}
	// A queued block per worker: a worker done with its block finds the next
	// one waiting while the caller waits on the oldest.
	queue := make(chan *block, workers)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch arenaPart
			for b := range queue {
				scratch = b.parse(d, scratch)
				close(b.done)
			}
		}()
	}
	var (
		parts   []arenaPart
		lines   int
		pending []*block // handed out, in input order
		free    [][]byte // buffers of consumed blocks
	)
	for {
		for len(pending) < 2*workers && !in.over() {
			var buf []byte
			if n := len(free); n > 0 {
				buf, free = free[n-1], free[:n-1]
			}
			b := &block{done: make(chan struct{})}
			var whole bool
			if b.buf, whole = in.next(buf); whole && len(b.buf) == 0 {
				break // the input ended on a block boundary
			}
			pending = append(pending, b)
			if !whole {
				b.serial = true
				close(b.done)
				break
			}
			queue <- b
		}
		if len(pending) == 0 {
			break
		}
		b := pending[0]
		<-b.done
		if b.serial {
			break
		}
		pending = pending[1:]
		parts = append(parts, b.part)
		lines += b.lines
		free = append(free, b.buf)
	}
	close(queue)
	wg.Wait()
	rest := make([]io.Reader, 0, len(pending)+2)
	for _, b := range pending {
		rest = append(rest, bytes.NewReader(b.buf))
	}
	rest = append(rest, bytes.NewReader(in.carry), in.rest())
	return parts, lines, io.MultiReader(rest...)
}

// parse parses the block's lines with read-only lookups in d into scratch,
// then copies the result into the block's own exact-size arena. It marks
// the block serial at the first line naming an unknown item or failing to
// parse. scratch is returned for reuse.
func (b *block) parse(d *dict.Dictionary, scratch arenaPart) arenaPart {
	p := lineParser{dict: d, frozen: true}
	ids, ends := scratch.ids[:0], scratch.ends[:0]
	for buf := b.buf; len(buf) > 0; {
		line, rest, _ := bytes.Cut(buf, []byte{'\n'})
		buf = rest
		var comment bool
		var err error
		if ids, comment, err = p.parse(ids, line); err != nil {
			b.serial = true
			return arenaPart{ids, ends}
		}
		if !comment {
			ends = append(ends, len(ids))
		}
	}
	b.lines = p.line
	b.part = arenaPart{slices.Clone(ids), slices.Clone(ends)}
	return arenaPart{ids, ends}
}

// maxLine is the longest line the basket format admits, the line scanner's
// limit.
const maxLine = 64 << 20

// newLineScanner returns a basket line scanner over r, admitting lines up
// to maxLine.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	return sc
}

// blockReader cuts its input into line-aligned blocks.
type blockReader struct {
	r     io.Reader
	size  int
	carry []byte // read bytes after the last block's final newline
	err   error  // the read error that ended the input, io.EOF at its end
	stuck bool   // the last block was not whole: read no further
}

// over reports whether no block is left to read: every byte of the input
// went out in a block, or the last block was not whole.
func (br *blockReader) over() bool { return br.stuck || br.err != nil && len(br.carry) == 0 }

// next returns the next block in buf's storage: the input's next size or
// more bytes, cut after their last newline, or all that is left at the end
// of the input. A line longer than size extends the block to its end. whole
// is false when the block ends inside a line of maxLine bytes or more, which
// the line scanner rejects, or at a read error; the block then holds every
// byte read.
func (br *blockReader) next(buf []byte) (block []byte, whole bool) {
	buf = append(slices.Grow(buf[:0], br.size), br.carry...)
	br.carry = br.carry[:0]
	searched := 0
	for {
		if len(buf) >= br.size {
			if i := bytes.LastIndexByte(buf[searched:], '\n'); i >= 0 {
				i += searched
				br.carry = append(br.carry, buf[i+1:]...)
				return buf[:i+1], true
			}
			if len(buf) >= maxLine {
				br.stuck = true
				return buf, false
			}
			searched = len(buf)
		}
		if br.err != nil {
			br.stuck = br.err != io.EOF
			return buf, !br.stuck
		}
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, max(br.size, len(buf)))
		}
		n, err := br.r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		br.err = err
	}
}

// rest returns a reader for the input after the bytes read so far: the
// underlying reader, or its read error again once it failed.
func (br *blockReader) rest() io.Reader {
	switch br.err {
	case nil:
		return br.r
	case io.EOF:
		return bytes.NewReader(nil)
	}
	return errReader{br.err}
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// lineParser is the byte-level basket line parser ReadBaskets and
// FileSource.Scan share. A name resolves by a dictionary lookup on its
// bytes, so only a name the dictionary has not seen allocates.
type lineParser struct {
	dict   *dict.Dictionary
	frozen bool // an unknown name is an error instead of a new ID
	line   int
}

// parse appends the transaction on line to dst, canonicalized in place, and
// returns the extended slice. comment reports a comment line, which holds
// no transaction; blank and "-" lines are empty transactions.
func (p *lineParser) parse(dst []itemset.ID, line []byte) (out []itemset.ID, comment bool, err error) {
	p.line++
	line = bytes.TrimSpace(line)
	if len(line) > 0 && line[0] == '#' {
		return dst, true, nil
	}
	if len(line) == 0 || (len(line) == 1 && line[0] == '-') {
		return dst, false, nil
	}
	start := len(dst)
	for more := true; more; {
		var field []byte
		field, line, more = bytes.Cut(line, []byte{','})
		name := bytes.TrimSpace(field)
		if len(name) == 0 {
			return dst, false, fmt.Errorf("line %d: empty item name", p.line)
		}
		if p.frozen {
			id, ok := p.dict.LookupBytes(name)
			if !ok {
				return dst, false, fmt.Errorf("line %d: item %q appeared after the first pass", p.line, name)
			}
			dst = append(dst, id)
		} else {
			dst = append(dst, p.dict.IDBytes(name))
		}
	}
	tx := itemset.Canon(dst[start:])
	return dst[:start+len(tx)], false, nil
}

// WriteBaskets serializes the database in the basket format. Item names
// containing the format's structural characters (commas, newlines, carriage
// returns, or a leading '#'/'-') cannot round-trip and are rejected.
func (db *DB) WriteBaskets(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, tx := range db.tx {
		if len(tx) == 0 {
			if _, err := bw.WriteString("-\n"); err != nil {
				return err
			}
			continue
		}
		for i, id := range tx {
			name := db.dict.Name(id)
			if err := validateBasketName(name); err != nil {
				return err
			}
			if i > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(name); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteBasketFile writes the database in the basket format to a new file at
// path, the file OpenFile and OpenBasketSource read back.
func (db *DB) WriteBasketFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := db.WriteBaskets(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// validateBasketName rejects item names that the basket text format cannot
// represent unambiguously.
func validateBasketName(name string) error {
	if name == "" || name == "-" {
		return fmt.Errorf("txdb: item name %q cannot round-trip the basket format", name)
	}
	if strings.ContainsAny(name, ",\n\r") {
		return fmt.Errorf("txdb: item name %q contains a basket separator", name)
	}
	if strings.HasPrefix(strings.TrimSpace(name), "#") {
		return fmt.Errorf("txdb: item name %q would parse as a comment", name)
	}
	if name != strings.TrimSpace(name) {
		return fmt.Errorf("txdb: item name %q has surrounding whitespace", name)
	}
	return nil
}

// FileSource is a Source that re-reads a basket file on every Scan, keeping
// memory usage independent of database size (the disk-resident mode of the
// paper's experiments). The dictionary is populated on the first pass and
// then frozen: later passes must not meet unknown items.
//
// Scans read through a resumable retry layer (see retry.go): a transient
// read fault mid-pass reopens the file at the first unconsumed byte instead
// of failing the mine, delivering every transaction exactly once.
type FileSource struct {
	path  string
	dict  *dict.Dictionary
	n     int
	init  bool
	retry RetryPolicy
	wrap  ReaderWrapper
}

// OpenFile creates a FileSource over path with dictionary d (nil for fresh).
// The file is validated (and the dictionary and transaction count populated)
// by one immediate pass. The source starts with DefaultRetry.
func OpenFile(path string, d *dict.Dictionary) (*FileSource, error) {
	if d == nil {
		d = dict.New()
	}
	fs := &FileSource{path: path, dict: d, retry: DefaultRetry}
	if err := fs.Scan(func(itemset.Set) error { return nil }); err != nil {
		return nil, err
	}
	fs.init = true
	return fs, nil
}

// SetRetry replaces the source's transient-read recovery policy (a zero
// policy disables recovery). Not safe to call concurrently with Scan.
func (fs *FileSource) SetRetry(p RetryPolicy) { fs.retry = p }

// SetReaderWrapper installs a decorator applied to the raw file reader of
// every (re)open — the fault-injection hook. Pass nil to remove. Not safe
// to call concurrently with Scan.
func (fs *FileSource) SetReaderWrapper(w ReaderWrapper) { fs.wrap = w }

// Dict returns the source's dictionary.
func (fs *FileSource) Dict() *dict.Dictionary { return fs.dict }

// Len returns the number of transactions counted on the first pass.
func (fs *FileSource) Len() int { return fs.n }

// Scan implements Source by streaming the file through the retry layer.
func (fs *FileSource) Scan(fn func(tx itemset.Set) error) error {
	f, err := openRetryReader(fs.path, fs.retry, fs.wrap)
	if err != nil {
		return fmt.Errorf("txdb: %w", err)
	}
	defer f.Close()
	p := lineParser{dict: fs.dict, frozen: fs.init}
	sc := newLineScanner(f)
	count := 0
	var ids []itemset.ID
	for sc.Scan() {
		var comment bool
		ids, comment, err = p.parse(ids[:0], sc.Bytes())
		if err != nil {
			return fmt.Errorf("txdb: %s: %w", fs.path, err)
		}
		if comment {
			continue
		}
		count++
		if err := fn(itemset.Set(ids)); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("txdb: read: %w", err)
	}
	if !fs.init {
		fs.n = count
	}
	return nil
}
