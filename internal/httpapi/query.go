package httpapi

import (
	"net/url"
	"strings"
)

// query holds the query-string parameters the search endpoints read,
// scanned from the raw query string in one pass. Each field reads what
// url.ParseQuery(raw).Get(name) would: the first well-formed occurrence
// of its key, unescaped, or "" when there is none.
type query struct {
	from, to, algo, weight, budgetMS, k, budget string
}

// field returns the destination for key's value and the bit marking it
// found, or nil for a key no endpoint reads.
func (q *query) field(key string) (*string, uint8) {
	switch key {
	case "from":
		return &q.from, 1 << 0
	case "to":
		return &q.to, 1 << 1
	case "algo":
		return &q.algo, 1 << 2
	case "weight":
		return &q.weight, 1 << 3
	case "budget_ms":
		return &q.budgetMS, 1 << 4
	case "k":
		return &q.k, 1 << 5
	case "budget":
		return &q.budget, 1 << 6
	}
	return nil, 0
}

// parseQuery scans raw once, by net/url's rules: pairs split on '&', a
// pair holding ';' or failing to unescape is skipped, and the first
// occurrence of a key wins. It allocates only to unescape a key or value
// that holds '%' or '+'.
func parseQuery(raw string) query {
	var q query
	var found uint8
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		key, value, _ := strings.Cut(pair, "=")
		key, ok := unescape(key)
		if !ok {
			continue
		}
		dst, bit := q.field(key)
		if dst == nil || found&bit != 0 {
			continue
		}
		if value, ok = unescape(value); ok {
			*dst = value
			found |= bit
		}
	}
	return q
}

// unescape is url.QueryUnescape without the call when s has nothing to
// unescape.
func unescape(s string) (string, bool) {
	if !strings.ContainsAny(s, "%+") {
		return s, true
	}
	u, err := url.QueryUnescape(s)
	return u, err == nil
}
