package httpapi

import (
	"net/url"
	"testing"
)

// FuzzRouteQuery is the differential test of the one-pass query scan:
// for any raw query string, every field reads what
// url.ParseQuery(raw).Get(key) reads for its key.
func FuzzRouteQuery(f *testing.F) {
	for _, seed := range []string{
		"",
		"from=A&to=B&algo=ch&weight=1.5&budget_ms=250",
		"from=A&to=D&k=3",
		"from=A&budget=5",
		"from=%41&to=%42%43",         // escapes
		"from=a+b&to=a%2Bb",          // '+' is a space, %2B a plus
		"fr%6Fm=Z&t%6F=Y",            // escaped keys
		"from=A;to=B&to=C",           // a pair holding ';' is dropped
		"from=A&from=B&to=C&to=D",    // the first occurrence wins
		"from=&from=B&to",            // empty values, a key without '='
		"from=%zz&from=ok&to=%4",     // a bad escape drops only its pair
		"&&from=A&&=x&to=B&",         // empty pairs and an empty key
		"budget_ms=5&budget_ms=6&k=", // duplicates and empty values
		"algo=%&weight=%2",           // truncated escapes
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		want, _ := url.ParseQuery(raw)
		q := parseQuery(raw)
		for key, got := range map[string]string{
			"from": q.from, "to": q.to, "algo": q.algo, "weight": q.weight,
			"budget_ms": q.budgetMS, "k": q.k, "budget": q.budget,
		} {
			if w := want.Get(key); got != w {
				t.Errorf("parseQuery(%q): %s = %q, url.ParseQuery gives %q", raw, key, got, w)
			}
		}
	})
}
