package main

// Coverage mode of the CI gate:
//
//	go test ./... -coverprofile=cover.out
//	go run ./ci -cover cover.out [-summary "$GITHUB_STEP_SUMMARY"] \
//	    [-require internal/core=85,internal/bitmap=85]
//
// aggregates the profile per package (covered statements over total
// statements, the same arithmetic as `go tool cover -func` totals), prints
// the table, appends it as markdown to the job summary, and fails when a
// -require'd package is below its floor or absent from the profile — a
// package that silently stopped being tested must fail the gate, not
// report 0% into the void.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
)

// pkgCover accumulates one package's statement counts.
type pkgCover struct {
	pkg            string
	total, covered int64
}

func (p pkgCover) percent() float64 {
	if p.total == 0 {
		return 0
	}
	return 100 * float64(p.covered) / float64(p.total)
}

// runCover executes the coverage mode.
func runCover(profilePath, requireSpec, summaryPath string, out io.Writer) error {
	pkgs, err := parseCoverProfile(profilePath)
	if err != nil {
		return err
	}
	floors, err := parseRequire(requireSpec)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(pkgs))
	for name := range pkgs {
		names = append(names, name)
	}
	sort.Strings(names)

	var failures []string
	fmt.Fprintf(out, "coverage per package (%s):\n", profilePath)
	for _, name := range names {
		p := pkgs[name]
		floorNote := ""
		if floor, required := matchFloor(floors, name); required {
			floorNote = fmt.Sprintf("  (floor %.0f%%)", floor)
			if p.percent() < floor {
				floorNote += "  BELOW FLOOR"
				failures = append(failures, fmt.Sprintf("%s at %.1f%% < %.0f%%", name, p.percent(), floor))
			}
		}
		fmt.Fprintf(out, "%-60s %6.1f%% (%d/%d statements)%s\n", name, p.percent(), p.covered, p.total, floorNote)
	}
	for suffix := range floors {
		if _, seen := matchPkg(pkgs, suffix); !seen {
			failures = append(failures, fmt.Sprintf("required package %s absent from the profile", suffix))
		}
	}

	if summaryPath != "" {
		f, err := os.OpenFile(summaryPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("summary: %w", err)
		}
		verdict := "✅ all floors met"
		if len(failures) > 0 {
			verdict = "❌ " + strings.Join(failures, "; ")
		}
		fmt.Fprintf(f, "### Coverage — %s\n\n", verdict)
		fmt.Fprintln(f, "| package | coverage | statements |")
		fmt.Fprintln(f, "|---|---:|---:|")
		for _, name := range names {
			p := pkgs[name]
			fmt.Fprintf(f, "| `%s` | %.1f%% | %d/%d |\n", name, p.percent(), p.covered, p.total)
		}
		fmt.Fprintln(f)
		if err := f.Close(); err != nil {
			return fmt.Errorf("summary: %w", err)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("coverage gate failed: %s", strings.Join(failures, "; "))
	}
	return nil
}

// parseCoverProfile aggregates a `go test -coverprofile` file per package.
// Each block line reads "file.go:s.c,e.c numStmts hitCount"; a statement is
// covered when any block containing it ran at least once. Blocks for the
// same region repeat across test binaries in a multi-package profile, so
// counts are merged by block key before totalling.
func parseCoverProfile(profilePath string) (map[string]pkgCover, error) {
	f, err := os.Open(profilePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	type block struct {
		stmts int64
		hit   bool
	}
	blocks := make(map[string]*block)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "mode:") {
			continue
		}
		// "<file>:<pos> <numStmts> <count>"
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("%s:%d: malformed profile line %q", profilePath, line, text)
		}
		stmts, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad statement count %q", profilePath, line, fields[1])
		}
		count, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad hit count %q", profilePath, line, fields[2])
		}
		key := fields[0]
		b, ok := blocks[key]
		if !ok {
			b = &block{stmts: stmts}
			blocks[key] = b
		}
		if count > 0 {
			b.hit = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("%s: empty coverage profile", profilePath)
	}
	pkgs := make(map[string]pkgCover)
	for key, b := range blocks {
		file := key
		if i := strings.Index(file, ":"); i >= 0 {
			file = file[:i]
		}
		pkg := path.Dir(file)
		p := pkgs[pkg]
		p.pkg = pkg
		p.total += b.stmts
		if b.hit {
			p.covered += b.stmts
		}
		pkgs[pkg] = p
	}
	return pkgs, nil
}

// parseRequire parses "pkg=pct,pkg=pct" floors. Package names match as
// import-path suffixes, so "internal/core" matches the module-qualified
// profile paths.
func parseRequire(spec string) (map[string]float64, error) {
	floors := make(map[string]float64)
	if spec == "" {
		return floors, nil
	}
	for _, part := range strings.Split(spec, ",") {
		pkg, pct, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || pkg == "" {
			return nil, fmt.Errorf("bad -require entry %q (want pkg=pct)", part)
		}
		v, err := strconv.ParseFloat(pct, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -require floor %q: %v", pct, err)
		}
		floors[pkg] = v
	}
	return floors, nil
}

// matchFloor finds the floor whose package suffix matches name, if any.
func matchFloor(floors map[string]float64, name string) (float64, bool) {
	for suffix, floor := range floors {
		if name == suffix || strings.HasSuffix(name, "/"+suffix) {
			return floor, true
		}
	}
	return 0, false
}

// matchPkg finds a profiled package matching the required suffix.
func matchPkg(pkgs map[string]pkgCover, suffix string) (string, bool) {
	for name := range pkgs {
		if name == suffix || strings.HasSuffix(name, "/"+suffix) {
			return name, true
		}
	}
	return "", false
}
