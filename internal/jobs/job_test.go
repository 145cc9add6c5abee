package jobs

import "testing"

// A capacity is usable when it is zero (the default), or positive with
// the shared cache on; a negative one, or one the shared cache is not
// there to read, is refused.
func TestCheckEvalCacheSize(t *testing.T) {
	for _, c := range []struct {
		size   int
		shared bool
		ok     bool
	}{
		{0, false, true},
		{0, true, true},
		{4096, true, true},
		{4096, false, false},
		{-1, true, false},
		{-1, false, false},
	} {
		if err := CheckEvalCacheSize(c.size, c.shared); (err == nil) != c.ok {
			t.Errorf("CheckEvalCacheSize(%d, %v) = %v, want ok %v", c.size, c.shared, err, c.ok)
		}
	}
}
