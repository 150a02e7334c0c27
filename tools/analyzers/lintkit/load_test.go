package lintkit

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadDirFollowsReplace loads a module that pulls a sibling module in
// with a replace directive, the way bench/ uses the root module. The
// replaced packages must type-check from source so the importing
// package loads, and only the swept module's own packages come back as
// targets.
func TestLoadDirFollowsReplace(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"lib/go.mod": "module libmod\n\ngo 1.22\n",
		"lib/wire/wire.go": `package wire

// Seq is an extended packet sequence.
type Seq uint64

// Next returns the sequence after s.
func Next(s Seq) Seq { return s + 1 }
`,
		"app/go.mod": "module appmod\n\ngo 1.22\n\nrequire libmod v0.0.0\n\nreplace libmod => ../lib\n",
		"app/main.go": `package main

import "libmod/wire"

func main() { _ = wire.Next(41) }
`,
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := LoadDir(filepath.Join(root, "app"), "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].ImportPath != "appmod" {
		var got []string
		for _, p := range pkgs {
			got = append(got, p.ImportPath)
		}
		t.Fatalf("loaded %v, want only appmod", got)
	}
	var wire bool
	for _, imp := range pkgs[0].Types.Imports() {
		if imp.Path() == "libmod/wire" && imp.Scope().Lookup("Next") != nil {
			wire = true
		}
	}
	if !wire {
		t.Fatal("appmod's import of the replaced libmod/wire was not type-checked")
	}
}
