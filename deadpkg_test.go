package quest

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadPackageAllowList names the internal packages that may stay without
// an importer, each with the reason it is kept.
var deadPackageAllowList = map[string]string{
	"internal/density": "exact density-matrix oracle that density_test.go " +
		"cross-validates the trajectory sampler against",
}

// TestNoDeadInternalPackages fails when an internal package is imported
// by no non-test file outside itself: code nothing builds on is code
// nobody maintains. Test-harness packages — those whose own non-test
// files import "testing" — must instead be imported by some other
// package's test. questbench/ (a separate benchmark harness) and
// testdata/ fixtures are not part of the program and are skipped.
func TestNoDeadInternalPackages(t *testing.T) {
	const module = "repro/"
	pkgs := map[string]bool{}      // internal package dir → is a test harness
	imported := map[string]bool{}  // package dir → a non-test file elsewhere imports it
	testUsers := map[string]bool{} // package dir → a test file elsewhere imports it
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "questbench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		isTest := strings.HasSuffix(path, "_test.go")
		internalCode := !isTest && strings.HasPrefix(dir, "internal/")
		if internalCode && !pkgs[dir] {
			pkgs[dir] = false // register the package
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if internalCode && p == "testing" {
				pkgs[dir] = true
			}
			target, ok := strings.CutPrefix(p, module)
			if !ok || target == dir {
				continue
			}
			if isTest {
				testUsers[target] = true
			} else {
				imported[target] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("found no internal packages; run from the module root")
	}

	var dead []string
	for dir, isHarness := range pkgs {
		if _, ok := deadPackageAllowList[dir]; ok {
			continue
		}
		if imported[dir] || (isHarness && testUsers[dir]) {
			continue
		}
		dead = append(dead, dir)
	}
	sort.Strings(dead)
	for _, dir := range dead {
		t.Errorf("%s is imported by no other package: delete it, or add it to deadPackageAllowList with the reason it stays", dir)
	}
	for dir := range deadPackageAllowList {
		if _, ok := pkgs[dir]; !ok {
			t.Errorf("deadPackageAllowList names %s, which is not a package", dir)
		}
	}
}
