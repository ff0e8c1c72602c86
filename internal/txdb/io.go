package txdb

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"

	"github.com/flipper-mining/flipper/internal/dict"
	"github.com/flipper-mining/flipper/internal/itemset"
)

// The basket text format is one transaction per line, item names separated
// by commas (names may contain spaces, e.g. "canned beer"). Blank lines are
// empty transactions unless they are comments ('#' prefix); a lone "-"
// denotes an explicitly empty transaction for round-trip fidelity.

// ReadBaskets parses the basket format from r into an in-memory DB, writing
// IDs through d (nil for a fresh dictionary). Every transaction is parsed
// and canonicalized in place in one ID arena, which the database's
// transactions alias through capped slices.
func ReadBaskets(r io.Reader, d *dict.Dictionary) (*DB, error) {
	db := New(d)
	p := lineParser{dict: db.dict}
	sc := newLineScanner(r)
	var arena []itemset.ID
	var ends []int
	for sc.Scan() {
		var comment bool
		var err error
		arena, comment, err = p.parse(arena, sc.Bytes())
		if err != nil {
			return nil, fmt.Errorf("txdb: %w", err)
		}
		if !comment {
			ends = append(ends, len(arena))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("txdb: read: %w", err)
	}
	db.tx = make([]itemset.Set, len(ends))
	lo := 0
	for i, hi := range ends {
		if hi > lo {
			db.tx[i] = arena[lo:hi:hi]
		}
		lo = hi
	}
	return db, nil
}

// newLineScanner returns a basket line scanner over r, admitting lines up
// to 64 MiB.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	return sc
}

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
