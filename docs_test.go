package lbtrust

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// historicalMarker exempts one documentation line from
// TestDocsNameOnlyWhatExists: the line reports something a retired
// program measured and says so, e.g. "*historical — last measured by the
// retired harness at PR 14*".
const historicalMarker = "*historical"

// docPathRefs match the ways the docs point a reader at code: a command
// to run, a binary under cmd/, a package under internal/. Group 1 is the
// directory, relative to the repository root, that must exist.
var docPathRefs = []*regexp.Regexp{
	regexp.MustCompile(`go run \./([A-Za-z0-9_/-]+)`),
	regexp.MustCompile(`\b(cmd/[A-Za-z0-9_-]+)`),
	regexp.MustCompile(`\b(internal/[A-Za-z0-9_]+)`),
}

// TestDocsNameOnlyWhatExists keeps the prose in lockstep with the tree:
// deleting a package or a binary fails here until every document that
// tells a reader to run or read it is updated or marked historical.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md")
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			if strings.Contains(line, historicalMarker) {
				continue
			}
			missing := map[string]bool{}
			for _, re := range docPathRefs {
				for _, m := range re.FindAllStringSubmatch(line, -1) {
					if st, err := os.Stat(m[1]); err != nil || !st.IsDir() {
						missing[m[1]] = true
					}
				}
			}
			for dir := range missing {
				t.Errorf("%s:%d: names %q, which is not a directory in this repository (update the line, or mark it %q with the PR it was last true at)",
					doc, i+1, dir, historicalMarker)
			}
		}
	}
}
