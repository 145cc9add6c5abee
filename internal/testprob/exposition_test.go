package testprob

import (
	"strings"
	"testing"
)

func TestCheckExposition(t *testing.T) {
	good := `# TYPE a_total counter
a_total 3
a_total{k="x\"y\\z\n"} 1
# TYPE b gauge
b{k="tab	here",j="2"} 0.500000
# TYPE empty counter
`
	if err := CheckExposition(good); err != nil {
		t.Fatalf("valid page refused: %v", err)
	}
	for name, page := range map[string]string{
		"interleaved":   "# TYPE a counter\na 1\n# TYPE b gauge\nb 1\na{k=\"v\"} 2\n",
		"second TYPE":   "# TYPE a counter\na 1\n# TYPE a counter\n",
		"no TYPE":       "a 1\n",
		"bad type":      "# TYPE a histogram\n",
		"Go escape":     "# TYPE a counter\na{k=\"\\t\"} 1\n",
		"unicode esc":   "# TYPE a counter\na{k=\"\\u2028\"} 1\n",
		"bare quote":    "# TYPE a counter\na{k=\"a\"b\"} 1\n",
		"not a number":  "# TYPE a counter\na one\n",
		"stray comment": "# TYPE a counter\n# HELP a help\na 1\n",
	} {
		if err := CheckExposition(page); err == nil {
			t.Errorf("%s: accepted\n%s", name, page)
		} else if !strings.Contains(err.Error(), "line ") {
			t.Errorf("%s: error names no line: %v", name, err)
		}
	}
}
