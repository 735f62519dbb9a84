package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheck runs the gate over testdata/mod, whose lib package has three
// findings: Unused and Kept, exported funcs only lib_test.go calls, and
// Config.Knob, a field the library reads and only lib_test.go sets. Name's
// String, and Err's Error and Unwrap, are never called by name; they
// satisfy fmt.Stringer, error and the anonymous interface errors.Is tests
// for Unwrap, so they are no findings. Each case writes an allowlist and
// names the problems the gate must report, by key.
func TestCheck(t *testing.T) {
	const (
		unused = "lib.Unused: exported, no non-test caller"
		kept   = "lib.Kept: exported, no non-test caller"
		knob   = "lib.Config.Knob: field read, never set outside tests"
	)
	listed := map[string]string{
		"unused": "lib.Unused seam: a test calls it",
		"kept":   "lib.Kept seam: a test calls it",
		"knob":   "lib.Config.Knob seam: a test sets it",
	}
	for _, tc := range []struct {
		name  string
		allow []string
		want  []string // substrings, one per expected problem
	}{
		{"unused exported func fails", []string{listed["kept"], listed["knob"]},
			[]string{unused}},
		{"field set only by a test fails", []string{listed["unused"], listed["kept"]},
			[]string{knob}},
		{"listed findings pass, interface methods are no findings", []string{listed["unused"], listed["kept"], listed["knob"]}, nil},
		{"a whole-package entry covers the package", []string{"lib.* seam: the test kit"}, nil},
		{"stale entry fails", []string{listed["unused"], listed["kept"], listed["knob"], "lib.Gone seam: removed"},
			[]string{"stale entry lib.Gone"}},
		{"nothing listed", nil,
			[]string{knob, kept, unused}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allow := filepath.Join(t.TempDir(), "allow.txt")
			if err := os.WriteFile(allow, []byte("# test\n"+strings.Join(tc.allow, "\n")+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			problems, err := check(filepath.Join("testdata", "mod"), allow)
			if err != nil {
				t.Fatal(err)
			}
			if len(problems) != len(tc.want) {
				t.Fatalf("problems:\n  %s\nwant %d: %q", strings.Join(problems, "\n  "), len(tc.want), tc.want)
			}
			for _, want := range tc.want {
				found := false
				for _, p := range problems {
					found = found || strings.Contains(p, want)
				}
				if !found {
					t.Errorf("no problem mentions %q in:\n  %s", want, strings.Join(problems, "\n  "))
				}
			}
		})
	}
}

// TestReadAllowRejectsBareKey: a line must give a reason.
func TestReadAllowRejectsBareKey(t *testing.T) {
	allow := filepath.Join(t.TempDir(), "allow.txt")
	if err := os.WriteFile(allow, []byte("lib.Unused\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readAllow(allow); err == nil {
		t.Fatal("a key with no reason was accepted")
	}
}
