//! A Porter-style suffix stripper.
//!
//! Full Porter stemming is overkill for the synthetic corpus; this
//! implements the high-yield steps (plurals, `-ed`/`-ing`, `-ly`,
//! `-ness`/`-ment`/`-tion`) with the "measure > 0" safeguard so that short
//! words like `sing` or `red` are left intact. BM25, METEOR-lite, and the
//! cross-feature reranker all match stems rather than surface forms.

/// Return `true` if the character is an English vowel (with `y` treated as
/// a vowel when not word-initial, a simplification of Porter's rule).
fn is_vowel(bytes: &[u8], i: usize) -> bool {
    match bytes[i] {
        b'a' | b'e' | b'i' | b'o' | b'u' => true,
        b'y' => i > 0 && !is_vowel(bytes, i - 1),
        _ => false,
    }
}

/// Whether the stem (as bytes) contains at least one vowel.
fn has_vowel(bytes: &[u8]) -> bool {
    (0..bytes.len()).any(|i| is_vowel(bytes, i))
}

/// Stem a lowercase token. Tokens shorter than 4 characters are returned
/// unchanged; unknown suffixes are left intact.
pub fn stem(word: &str) -> String {
    let mut out = String::new();
    stem_into(word, &mut out);
    out
}

/// [`stem`] into a caller's buffer (overwritten), so a loop over many
/// tokens reuses one allocation. Every step edits the tail of `w` in place.
pub fn stem_into(word: &str, w: &mut String) {
    w.clear();
    w.push_str(word);
    if w.len() < 4 || !w.is_ascii() {
        return;
    }

    // Step 1: plurals and -es/-ies
    if w.ends_with("sses") || w.ends_with("ies") {
        w.truncate(w.len() - 2);
    } else if w.ends_with('s') && !w.ends_with("ss") && !w.ends_with("us") {
        w.pop();
    }

    // Step 2: -ed / -ing (only when a vowel remains in the stem)
    let stripped = w
        .strip_suffix("ing")
        .or_else(|| w.strip_suffix("ed"))
        .filter(|base| has_vowel(base.as_bytes()) && base.len() >= 3)
        .map(|base| undoubled_len(base.as_bytes()));
    if let Some(len) = stripped {
        w.truncate(len);
    }

    // Step 3: adverbial/nominal suffixes
    for (suffix, replacement) in [
        ("ational", "ate"),
        ("ization", "ize"),
        ("fulness", "ful"),
        ("ousness", "ous"),
        ("iveness", "ive"),
        ("tional", "tion"),
        ("biliti", "ble"),
        ("entli", "ent"),
        ("ousli", "ous"),
        ("ment", ""),
        ("ness", ""),
        ("ally", "al"),
        ("ly", ""),
    ] {
        if let Some(base) = w.strip_suffix(suffix) {
            if base.len() >= 3 {
                w.truncate(base.len());
                w.push_str(replacement);
            }
            break;
        }
    }

    // Final y -> i normalisation so "happy"/"happi(ness)" merge.
    if w.len() > 3 && w.ends_with('y') {
        w.pop();
        w.push('i');
    }
}

/// Length of `base` once a doubled final consonant left by -ed/-ing removal
/// is collapsed (`hopping` → `hop`), except for l/s/z which legitimately
/// double.
fn undoubled_len(b: &[u8]) -> usize {
    let n = b.len();
    if n >= 2 && b[n - 1] == b[n - 2] && !matches!(b[n - 1], b'l' | b's' | b'z') && !is_vowel(b, n - 1)
    {
        n - 1
    } else {
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plurals() {
        assert_eq!(stem("cats"), "cat");
        assert_eq!(stem("ponies"), "poni");
        assert_eq!(stem("classes"), "class");
    }

    #[test]
    fn keeps_short_words() {
        assert_eq!(stem("is"), "is");
        assert_eq!(stem("red"), "red");
        assert_eq!(stem("bus"), "bus");
    }

    #[test]
    fn ed_ing() {
        assert_eq!(stem("jumped"), "jump");
        assert_eq!(stem("jumping"), "jump");
        assert_eq!(stem("hopping"), "hop");
        // "sing" keeps its vowel-less prefix intact
        assert_eq!(stem("sing"), "sing");
    }

    #[test]
    fn derivational() {
        assert_eq!(stem("quickly"), "quick");
        assert_eq!(stem("happiness"), "happi");
        assert_eq!(stem("government"), "govern");
    }

    #[test]
    fn y_to_i_merges_variants() {
        assert_eq!(stem("happy"), "happi");
    }

    #[test]
    fn double_l_kept() {
        assert_eq!(stem("falling"), "fall");
    }

    #[test]
    fn shared_stem_for_morph_variants() {
        assert_eq!(stem("retrieves"), stem("retrieve"));
        assert_eq!(stem("segmenting"), stem("segmented"));
    }

    #[test]
    fn non_ascii_passthrough() {
        assert_eq!(stem("café"), "café");
    }
}
