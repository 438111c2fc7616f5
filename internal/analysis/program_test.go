package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadSkipsNestedModules: a directory below the load root that holds
// its own go.mod is another module, as the go command sees it. Its package
// imports a sibling by its own module path, which does not resolve when
// the package is read as part of the outer module, so loading it would
// fail the whole load.
func TestLoadSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":        "module example.com/outer\n\ngo 1.24\n",
		"a/a.go":        "package a\n\nconst A = 1\n",
		"nested/go.mod": "module example.com/nested\n\ngo 1.24\n",
		"nested/p/p.go": "package p\n\nimport \"example.com/nested/q\"\n\nconst P = q.Q\n",
		"nested/q/q.go": "package q\n\nconst Q = 2\n",
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	prog, err := Load(LoadConfig{Dir: root, ModulePath: "example.com/outer"})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	var got []string
	for _, pi := range prog.Packages {
		got = append(got, pi.PkgPath)
	}
	if len(got) != 1 || got[0] != "example.com/outer/a" {
		t.Fatalf("loaded packages %v, want only example.com/outer/a", got)
	}
}
