package index

import "strings"

// stopwords excluded from indexing and querying. The list is small on
// purpose: the corpus is generated text, so aggressive stopping buys
// little and risks dropping meaningful domain words.
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "but": true, "by": true, "for": true, "from": true,
	"had": true, "has": true, "have": true, "he": true, "her": true,
	"his": true, "in": true, "is": true, "it": true, "its": true,
	"of": true, "on": true, "or": true, "s": true, "she": true,
	"that": true, "the": true, "their": true, "them": true, "there": true,
	"they": true, "this": true, "to": true, "was": true, "were": true,
	"which": true, "will": true, "with": true, "would": true,
}

// Tokenize lower-cases s, splits it on non-alphanumeric runes, removes
// stopwords, and applies light suffix stripping so that close variants
// ("cables"/"cable", "connected"/"connect") collide. The same function is
// used for documents and queries, which is what makes retrieval work.
func Tokenize(s string) []string {
	fields := strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9')
	})
	out := make([]string, 0, len(fields))
	for _, f := range fields {
		if stopwords[f] {
			continue
		}
		f = stem(f)
		if f == "" || stopwords[f] {
			continue
		}
		out = append(out, f)
	}
	return out
}

// stem applies a light, deterministic suffix strip: plural, then
// -ing/-ed, then a final silent-e strip. It is far cruder than Porter
// stemming, but it is *conflation-consistent*: "cable", "cables" and
// "cabled" all map to the same stem, which is the only property retrieval
// needs since the same function runs on documents and queries.
func stem(w string) string {
	if n := len(w); n > 4 && strings.HasSuffix(w, "ies") {
		w = w[:n-3] + "y"
	} else if n > 3 && strings.HasSuffix(w, "s") && !strings.HasSuffix(w, "ss") && !strings.HasSuffix(w, "us") {
		w = w[:n-1]
	}
	if n := len(w); n > 5 && strings.HasSuffix(w, "ing") {
		w = w[:n-3]
	} else if n > 4 && strings.HasSuffix(w, "ed") {
		w = w[:n-2]
	}
	if n := len(w); n > 3 && strings.HasSuffix(w, "e") {
		w = w[:n-1]
	}
	return w
}

// termSet returns the distinct tokens of s.
func termSet(s string) map[string]bool {
	set := map[string]bool{}
	for _, t := range Tokenize(s) {
		set[t] = true
	}
	return set
}

// Overlap returns |A ∩ B| / |A| for the token sets of a and b — the
// fraction of a's distinct terms that also appear in b. It is the
// coverage primitive the simulated LLM uses for evidence scoring.
func Overlap(a, b string) float64 {
	as := termSet(a)
	if len(as) == 0 {
		return 0
	}
	bs := termSet(b)
	hit := 0
	for t := range as {
		if bs[t] {
			hit++
		}
	}
	return float64(hit) / float64(len(as))
}
