package testprob

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

var (
	typeLine = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge)$`)
	// A label value may hold any character but a bare quote, backslash or
	// line feed; those three are escaped as \", \\ and \n, nothing else.
	label      = `[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"`
	sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(?:` + label + `(?:,` + label + `)*)?\})? (\S+)$`)
)

// CheckExposition checks a /metrics page against the Prometheus text
// format as the service writes it: every line is a `# TYPE <name>
// counter|gauge` line or a `<name>[{k="v",…}] <float>` sample; each
// family has exactly one TYPE line, and all of its samples follow that
// line with no other family's lines in between.
func CheckExposition(page string) error {
	seen := make(map[string]bool)
	current := ""
	for i, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		if m := typeLine.FindStringSubmatch(line); m != nil {
			if seen[m[1]] {
				return fmt.Errorf("line %d: second TYPE line for %s", i+1, m[1])
			}
			seen[m[1]], current = true, m[1]
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("line %d: not a TYPE line or a sample: %q", i+1, line)
		}
		if m[1] != current {
			return fmt.Errorf("line %d: sample of %s outside its family's group (current family %q)", i+1, m[1], current)
		}
		if _, err := strconv.ParseFloat(m[2], 64); err != nil {
			return fmt.Errorf("line %d: value: %v", i+1, err)
		}
	}
	return nil
}
