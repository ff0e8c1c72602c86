package experiments

import (
	"os"
	"path/filepath"
	"runtime"

	"github.com/flipper-mining/flipper/internal/datasets"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// ColdInput writes the medline simulator at scale 0.1, seed 1 (64,000
// citations) under dir as taxonomy.tsv and baskets.txt — the input of a
// one-shot flipper run in the end-to-end benchmark — and returns the
// taxonomy read back from its file, as the flipper CLI reads it, with the
// baskets' path. Shared by BenchmarkColdPrepare and the flipbench -json
// record ColdPrepare/medline.
func ColdInput(dir string) (*taxonomy.Tree, string, error) {
	md, err := datasets.Medline(0.1, 1)
	if err != nil {
		return nil, "", err
	}
	taxPath, basketsPath := filepath.Join(dir, "taxonomy.tsv"), filepath.Join(dir, "baskets.txt")
	if err := writeFile(taxPath, func(f *os.File) error { _, err := md.Tree.WriteTo(f); return err }); err != nil {
		return nil, "", err
	}
	if err := md.DB.WriteBasketFile(basketsPath); err != nil {
		return nil, "", err
	}
	f, err := os.Open(taxPath)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	tree, err := taxonomy.Parse(f, nil)
	if err != nil {
		return nil, "", err
	}
	if !tree.IsBalanced() {
		tree = tree.Extend()
	}
	return tree, basketsPath, nil
}

// ColdPrepare loads the baskets at path against tree's dictionary and
// builds their levels as an engine does at its default parallelism: the
// preparation a one-shot flipper run pays before its search starts.
func ColdPrepare(tree *taxonomy.Tree, path string) error {
	src, err := txdb.OpenBasketSource(path, tree.Dict(), false)
	if err != nil {
		return err
	}
	_, err = txdb.BuildLevels([]txdb.Source{src}, tree, runtime.GOMAXPROCS(0))
	return err
}

func writeFile(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
