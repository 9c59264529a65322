package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// The suppression escape hatch: a comment of the form
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// on the same line as a finding, or on the line directly above it,
// suppresses the named analyzers' findings there. The reason is mandatory —
// an ignore without a justification is itself not honoured — because the
// directive is a reviewed assertion ("caller holds d.mu") that replaces
// the mechanical proof the analyzer could not complete. The analyzer list
// is comma-separated with no spaces; "all" suppresses every analyzer.
// Directives naming an analyzer outside the known suite are reported as
// findings themselves (analyzer "ignore"): a misspelled suppression that
// silently does nothing is worse than no suppression at all.

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos       token.Position
	analyzers []string // names, possibly including "all"
	reason    string
}

// ignoreSet indexes directives by file and line.
type ignoreSet map[string]map[int][]ignoreDirective

// collectIgnoresInto parses the unit's directives into set, so the driver
// can merge directives across all units of a program.
func collectIgnoresInto(set ignoreSet, u *Unit) {
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) < 2 {
					continue // no reason given: directive is inert
				}
				pos := u.Position(c.Pos())
				d := ignoreDirective{
					pos:       pos,
					analyzers: strings.Split(fields[0], ","),
					reason:    strings.Join(fields[1:], " "),
				}
				if set[pos.Filename] == nil {
					set[pos.Filename] = make(map[int][]ignoreDirective)
				}
				set[pos.Filename][pos.Line] = append(set[pos.Filename][pos.Line], d)
			}
		}
	}
}

// names reports whether the directive covers the analyzer.
func (d ignoreDirective) names(analyzer string) bool {
	for _, a := range d.analyzers {
		if a == "all" || a == analyzer {
			return true
		}
	}
	return false
}

// suppresses reports whether a directive covers the diagnostic: a matching
// analyzer name (or "all") on the diagnostic's line or the line above.
func (s ignoreSet) suppresses(d Diagnostic) bool {
	lines := s[d.Pos.Filename]
	for _, ln := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, dir := range lines[ln] {
			if dir.names(d.Analyzer) {
				return true
			}
		}
	}
	return false
}

// unknownWarnings returns one diagnostic per directive entry naming an
// analyzer outside the known set.
func (s ignoreSet) unknownWarnings(known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, lines := range s {
		for _, dirs := range lines {
			for _, d := range dirs {
				for _, name := range d.analyzers {
					if name == "all" || known[name] {
						continue
					}
					out = append(out, Diagnostic{
						Pos:      d.pos,
						Analyzer: "ignore",
						Message:  fmt.Sprintf("//lint:ignore names unknown analyzer %q; the suppression has no effect (known: %s)", name, knownNames(known)),
					})
				}
			}
		}
	}
	return out
}

// knownNames renders the known analyzer set for the warning message.
func knownNames(known map[string]bool) string {
	names := make([]string, 0, len(known))
	for n := range known {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
