package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// writeModule lays out files (slash paths → contents) under a fresh
// directory and returns it.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, body := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestUnreferenced runs the scan on a small module: a name counts as used
// only through a non-test file of another package of the module, a main
// package included; a method an interface reaches and a type whose values
// another package holds count as used; test files, main packages' own names
// and a nested module count for nothing.
func TestUnreferenced(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.24\n",
		"a/a.go": `package a

import "fmt"

type T struct {
	Used   int
	Unused int
}

func (T) String() string  { return fmt.Sprint("t") }
func (T) Dead()           {}
func (t T) Count() int    { return t.Used }

func Live() T { return T{} }
func Dead()   {}
func Helper() {}

func init() { Helper() }

const C = 1

type Gone struct{ X int }
`,
		"a/a_test.go": `package a

import "testing"

func TestDead(t *testing.T) { Dead(); _ = Gone{}.X }
`,
		"b/b.go": `package b

import "example.com/m/a"

func Run() int { t := a.Live(); return t.Used + t.Count() }
`,
		"b/b_test.go": `package b_test

import "example.com/m/a"

var _ = a.C
`,
		"cmd/x/main.go": `package main

import "example.com/m/b"

func Exported() {}

func main() { _ = b.Run() }
`,
		"nested/go.mod": "module example.com/nested\n\ngo 1.24\n",
		"nested/n.go": `package nested

import "example.com/m/a"

var _ = a.T{}.Unused
`,
	})
	got, err := unreferenced(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a.C", "a.Dead", "a.Gone", "a.Helper", "a.T.Dead", "a.T.Unused"}
	if !slices.Equal(got, want) {
		t.Fatalf("unreferenced = %v, want %v", got, want)
	}
}

// TestCheck: a listed name without an entry fails, an entry that covers no
// listed name fails, and an "X.*" entry covers X and everything under it.
func TestCheck(t *testing.T) {
	listed := []string{"p.A", "p.T", "p.U.F", "p.U.M", "q.Z"}
	pass := map[string]string{"p.A": "a", "p.T.*": "t", "p.U.*": "u", "q.*": "q"}
	if err := check(listed, pass); err != nil {
		t.Fatalf("complete table: %v", err)
	}
	missing := map[string]string{"p.A": "a", "p.T.*": "t", "p.U.F": "f", "q.*": "q"}
	if err := check(listed, missing); err == nil || !strings.Contains(err.Error(), "p.U.M") {
		t.Fatalf("missing p.U.M: err = %v", err)
	}
	stale := map[string]string{"p.A": "a", "p.T.*": "t", "p.U.*": "u", "q.*": "q", "p.Gone": "gone"}
	if err := check(listed, stale); err == nil || !strings.Contains(err.Error(), "p.Gone") {
		t.Fatalf("stale p.Gone: err = %v", err)
	}
}
