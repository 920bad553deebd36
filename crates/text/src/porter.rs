//! Porter stemmer (M.F. Porter, "An algorithm for suffix stripping", 1980).
//!
//! This is a faithful port of Porter's original reference implementation
//! (no later "departures"): step 1a/1b/1c pluralization and -ed/-ing
//! handling, step 2 and 3 suffix mappings gated on measure m > 0, step 4
//! removals gated on m > 1, and step 5 final -e / -ll cleanup. The paper's
//! parser runs this as Step 3 on every token (§III.C).
//!
//! Only pure lowercase ASCII alphabetic words are stemmed; anything else
//! (numbers, hyphenated or accented tokens) passes through unchanged, which
//! matches how such tokens land in the dictionary's "special" collections.
//!
//! Two entry points share one core:
//!
//! * [`stem_into`] — the hot-path API. The stemmer copies the word into
//!   the caller's reusable [`StemBuf`] once (a short memcpy — far cheaper
//!   than branching on buffer-vs-input for every byte the rules inspect)
//!   and works contiguously. Words that only lose a suffix (or are
//!   untouched) are still returned as a borrowed prefix of the *input*, so
//!   downstream comparisons and stop-word probes read the original bytes.
//! * [`stem`] — the original `Cow` API, retained for callers that need an
//!   owned result; it delegates to the same core over a stack buffer.
//!
//! The pre-optimization `Vec`-per-word implementation lives on, frozen, as
//! the differential oracle of the integration test crate.

// The step functions mirror Porter's reference C implementation
// case-for-case; collapsing matches or merging identical arms would
// obscure the correspondence that makes the port auditable.
#![allow(clippy::collapsible_match, clippy::if_same_then_else)]

use std::borrow::Cow;

/// Fixed scratch size covering every realistic word; longer words grow the
/// buffer once and keep the larger capacity.
pub const STEM_BUF_LEN: usize = 256;

/// Reusable scratch for [`stem_into`]. One per thread (or per
/// `ParseScratch`); steady-state stemming performs no allocation.
pub struct StemBuf {
    bytes: Vec<u8>,
}

impl Default for StemBuf {
    fn default() -> Self {
        StemBuf { bytes: vec![0; STEM_BUF_LEN] }
    }
}

impl StemBuf {
    /// A fresh buffer with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Stem a single token into caller-owned scratch. Tokens must already be
/// lowercased. Returns a borrow of `word` (often a shortened prefix) when
/// no rewrite rule edited any byte, and a borrow of `buf` otherwise —
/// never allocating on the hot path.
pub fn stem_into<'a>(word: &'a str, buf: &'a mut StemBuf) -> &'a str {
    let b = word.as_bytes();
    if b.len() <= 2 || !b.iter().all(u8::is_ascii_lowercase) {
        return word;
    }
    if buf.bytes.len() < b.len() {
        buf.bytes.resize(b.len(), 0);
    }
    let (k, dirty) = stem_run(b, &mut buf.bytes);
    if dirty {
        std::str::from_utf8(&buf.bytes[..=k]).expect("stemmer output is ascii")
    } else {
        &word[..=k]
    }
}

/// Stem a single token. Tokens must already be lowercased.
///
/// Compatibility wrapper over the in-place core: borrowed when unchanged,
/// owned otherwise.
pub fn stem(word: &str) -> Cow<'_, str> {
    let b = word.as_bytes();
    if b.len() <= 2 || !b.iter().all(u8::is_ascii_lowercase) {
        return Cow::Borrowed(word);
    }
    let mut stack = [0u8; STEM_BUF_LEN];
    let mut heap;
    let buf: &mut [u8] = if b.len() <= STEM_BUF_LEN {
        &mut stack
    } else {
        heap = vec![0u8; b.len()];
        &mut heap
    };
    let (k, dirty) = stem_run(b, buf);
    if !dirty {
        if k + 1 == b.len() {
            Cow::Borrowed(word)
        } else {
            Cow::Owned(word[..=k].to_string())
        }
    } else {
        Cow::Owned(
            String::from_utf8(buf[..=k].to_vec()).expect("stemmer output is ascii"),
        )
    }
}

/// Run all five steps over `src` (lowercase ASCII, len >= 3) using `buf`
/// (`buf.len() >= src.len()`) as working storage. `src` is copied into
/// `buf` once up front and the rules run contiguously — one short memcpy
/// beats a per-byte-access branch across the thousands of byte inspections
/// the rules perform. Returns the final end index `k` and whether any rule
/// *edited* a byte; while clean, `src[..=k]` equals `buf[..=k]`, so the
/// caller can hand out a borrow of the original input.
///
/// Porter's rules never grow a word past its original length (every
/// `setto` replaces a longer or equal suffix, and step 1b's restorations
/// re-add at most one of the >= 2 bytes just removed), so `src.len()`
/// bytes of scratch always suffice.
fn stem_run(src: &[u8], buf: &mut [u8]) -> (usize, bool) {
    let n = src.len();
    buf[..n].copy_from_slice(src);
    let mut s = Stemmer { b: &mut buf[..n], mutated: false, k: n - 1, j: 0 };
    s.step1ab();
    s.step1c();
    s.step2();
    s.step3();
    s.step4();
    s.step5();
    (s.k, s.mutated)
}

/// Working state mirroring the reference C implementation: the live word
/// is `b[0..=k]`; `j` (signed, may be -1) is the stem end set by `ends`;
/// `mutated` records whether any rewrite rule edited a byte (pure
/// truncations leave `b[..=k]` equal to the input prefix).
struct Stemmer<'b> {
    b: &'b mut [u8],
    mutated: bool,
    k: usize,
    j: isize,
}

impl Stemmer<'_> {
    /// Byte `i` of the live word.
    #[inline]
    fn at(&self, i: usize) -> u8 {
        self.b[i]
    }

    /// Is `b[i]` a consonant? 'y' is a consonant at position 0 or after a
    /// vowel, and a vowel after a consonant.
    fn cons(&self, i: usize) -> bool {
        match self.at(i) {
            b'a' | b'e' | b'i' | b'o' | b'u' => false,
            b'y' => i == 0 || !self.cons(i - 1),
            _ => true,
        }
    }

    /// The measure m of the stem `b[0..=j]`: the number of VC sequences in
    /// its C?(VC)^m V? decomposition.
    fn m(&self) -> usize {
        let mut n = 0usize;
        let mut i: isize = 0;
        loop {
            if i > self.j {
                return n;
            }
            if !self.cons(i as usize) {
                break;
            }
            i += 1;
        }
        i += 1;
        loop {
            loop {
                if i > self.j {
                    return n;
                }
                if self.cons(i as usize) {
                    break;
                }
                i += 1;
            }
            i += 1;
            n += 1;
            loop {
                if i > self.j {
                    return n;
                }
                if !self.cons(i as usize) {
                    break;
                }
                i += 1;
            }
            i += 1;
        }
    }

    /// Does the stem `b[0..=j]` contain a vowel?
    fn vowel_in_stem(&self) -> bool {
        (0..=self.j).any(|i| !self.cons(i as usize))
    }

    /// Is there a double consonant ending at `i`?
    fn doublec(&self, i: usize) -> bool {
        i >= 1 && self.at(i) == self.at(i - 1) && self.cons(i)
    }

    /// consonant-vowel-consonant ending at `i`, final consonant not w/x/y.
    /// Signals a short stem like "fil" whose trailing 'e' is restored.
    fn cvc(&self, i: isize) -> bool {
        if i < 2 {
            return false;
        }
        let i = i as usize;
        if !self.cons(i) || self.cons(i - 1) || !self.cons(i - 2) {
            return false;
        }
        !matches!(self.at(i), b'w' | b'x' | b'y')
    }

    /// Does `b[0..=k]` end with `s`? Sets `j` to the stem end on success.
    fn ends(&mut self, s: &[u8]) -> bool {
        let l = s.len();
        if l > self.k + 1 || self.b[self.k + 1 - l..=self.k] != *s {
            return false;
        }
        self.j = self.k as isize - l as isize;
        true
    }

    /// Replace `b[j+1..=k]` with `s` and fix up `k`.
    fn setto(&mut self, s: &[u8]) {
        self.mutated = true;
        let start = (self.j + 1) as usize;
        self.b[start..start + s.len()].copy_from_slice(s);
        self.k = (self.j + s.len() as isize) as usize;
    }

    /// Conditional replace: apply `setto` when m > 0.
    fn r(&mut self, s: &[u8]) {
        if self.m() > 0 {
            self.setto(s);
        }
    }

    /// Step 1a (plurals) and 1b (-eed / -ed / -ing with cleanup).
    fn step1ab(&mut self) {
        if self.at(self.k) == b's' {
            if self.ends(b"sses") {
                self.k -= 2;
            } else if self.ends(b"ies") {
                self.setto(b"i");
            } else if self.at(self.k - 1) != b's' {
                self.k -= 1;
            }
        }
        if self.ends(b"eed") {
            if self.m() > 0 {
                self.k -= 1;
            }
        } else if (self.ends(b"ed") || self.ends(b"ing")) && self.vowel_in_stem() {
            self.k = self.j as usize; // j >= 0 here: vowel_in_stem needs j >= 0
            if self.ends(b"at") {
                self.setto(b"ate");
            } else if self.ends(b"bl") {
                self.setto(b"ble");
            } else if self.ends(b"iz") {
                self.setto(b"ize");
            } else if self.doublec(self.k) {
                // hopp -> hop, but fall/hiss/fizz keep the double letter.
                self.k -= 1;
                if matches!(self.at(self.k), b'l' | b's' | b'z') {
                    self.k += 1;
                }
            } else if self.m() == 1 && self.cvc(self.k as isize) {
                self.j = self.k as isize;
                self.setto(b"e");
            }
        }
    }

    /// Step 1c: terminal y -> i when the stem contains a vowel.
    fn step1c(&mut self) {
        if self.at(self.k) == b'y' {
            self.j = self.k as isize - 1;
            if self.vowel_in_stem() {
                self.mutated = true;
                self.b[self.k] = b'i';
            }
        }
    }

    /// Step 2: double-suffix reductions, applied when m > 0.
    fn step2(&mut self) {
        if self.k < 1 {
            return;
        }
        match self.at(self.k - 1) {
            b'a' => {
                if self.ends(b"ational") {
                    self.r(b"ate");
                } else if self.ends(b"tional") {
                    self.r(b"tion");
                }
            }
            b'c' => {
                if self.ends(b"enci") {
                    self.r(b"ence");
                } else if self.ends(b"anci") {
                    self.r(b"ance");
                }
            }
            b'e' => {
                if self.ends(b"izer") {
                    self.r(b"ize");
                }
            }
            b'l' => {
                if self.ends(b"abli") {
                    self.r(b"able");
                } else if self.ends(b"alli") {
                    self.r(b"al");
                } else if self.ends(b"entli") {
                    self.r(b"ent");
                } else if self.ends(b"eli") {
                    self.r(b"e");
                } else if self.ends(b"ousli") {
                    self.r(b"ous");
                }
            }
            b'o' => {
                if self.ends(b"ization") {
                    self.r(b"ize");
                } else if self.ends(b"ation") {
                    self.r(b"ate");
                } else if self.ends(b"ator") {
                    self.r(b"ate");
                }
            }
            b's' => {
                if self.ends(b"alism") {
                    self.r(b"al");
                } else if self.ends(b"iveness") {
                    self.r(b"ive");
                } else if self.ends(b"fulness") {
                    self.r(b"ful");
                } else if self.ends(b"ousness") {
                    self.r(b"ous");
                }
            }
            b't' => {
                if self.ends(b"aliti") {
                    self.r(b"al");
                } else if self.ends(b"iviti") {
                    self.r(b"ive");
                } else if self.ends(b"biliti") {
                    self.r(b"ble");
                }
            }
            _ => {}
        }
    }

    /// Step 3: -icate/-ative/-alize/-iciti/-ical/-ful/-ness, when m > 0.
    fn step3(&mut self) {
        match self.at(self.k) {
            b'e' => {
                if self.ends(b"icate") {
                    self.r(b"ic");
                } else if self.ends(b"ative") {
                    self.r(b"");
                } else if self.ends(b"alize") {
                    self.r(b"al");
                }
            }
            b'i' => {
                if self.ends(b"iciti") {
                    self.r(b"ic");
                }
            }
            b'l' => {
                if self.ends(b"ical") {
                    self.r(b"ic");
                } else if self.ends(b"ful") {
                    self.r(b"");
                }
            }
            b's' => {
                if self.ends(b"ness") {
                    self.r(b"");
                }
            }
            _ => {}
        }
    }

    /// Step 4: drop residual suffixes when m > 1.
    fn step4(&mut self) {
        if self.k < 1 {
            return;
        }
        let matched = match self.at(self.k - 1) {
            b'a' => self.ends(b"al"),
            b'c' => self.ends(b"ance") || self.ends(b"ence"),
            b'e' => self.ends(b"er"),
            b'i' => self.ends(b"ic"),
            b'l' => self.ends(b"able") || self.ends(b"ible"),
            b'n' => {
                self.ends(b"ant")
                    || self.ends(b"ement")
                    || self.ends(b"ment")
                    || self.ends(b"ent")
            }
            b'o' => {
                (self.ends(b"ion")
                    && self.j >= 0
                    && matches!(self.at(self.j as usize), b's' | b't'))
                    || self.ends(b"ou")
            }
            b's' => self.ends(b"ism"),
            b't' => self.ends(b"ate") || self.ends(b"iti"),
            b'u' => self.ends(b"ous"),
            b'v' => self.ends(b"ive"),
            b'z' => self.ends(b"ize"),
            _ => false,
        };
        if matched && self.m() > 1 {
            self.k = self.j as usize;
        }
    }

    /// Step 5: remove final -e (m > 1, or m == 1 without cvc) and reduce a
    /// final double -l when m > 1. As in the reference implementation, `j`
    /// is set once at entry.
    fn step5(&mut self) {
        self.j = self.k as isize;
        if self.at(self.k) == b'e' {
            let a = self.m();
            if a > 1 || (a == 1 && !self.cvc(self.k as isize - 1)) {
                self.k -= 1;
            }
        }
        if self.at(self.k) == b'l' && self.doublec(self.k) && self.m() > 1 {
            self.k -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(w: &str) -> String {
        stem(w).into_owned()
    }

    #[test]
    fn step1a_plurals() {
        assert_eq!(s("caresses"), "caress");
        assert_eq!(s("ponies"), "poni");
        assert_eq!(s("ties"), "ti");
        assert_eq!(s("caress"), "caress");
        assert_eq!(s("cats"), "cat");
    }

    #[test]
    fn step1b_ed_ing() {
        assert_eq!(s("feed"), "feed");
        assert_eq!(s("agreed"), "agre");
        assert_eq!(s("plastered"), "plaster");
        assert_eq!(s("bled"), "bled");
        assert_eq!(s("motoring"), "motor");
        assert_eq!(s("sing"), "sing");
        assert_eq!(s("conflated"), "conflat");
        assert_eq!(s("troubled"), "troubl");
        assert_eq!(s("sized"), "size");
        assert_eq!(s("hopping"), "hop");
        assert_eq!(s("tanned"), "tan");
        assert_eq!(s("falling"), "fall");
        assert_eq!(s("hissing"), "hiss");
        assert_eq!(s("fizzed"), "fizz");
        assert_eq!(s("failing"), "fail");
        assert_eq!(s("filing"), "file");
    }

    #[test]
    fn step1c_y_to_i() {
        assert_eq!(s("happy"), "happi");
        assert_eq!(s("sky"), "sky");
    }

    #[test]
    fn step2_mappings() {
        assert_eq!(s("relational"), "relat");
        assert_eq!(s("conditional"), "condit");
        assert_eq!(s("rational"), "ration");
        assert_eq!(s("valenci"), "valenc");
        assert_eq!(s("hesitanci"), "hesit");
        assert_eq!(s("digitizer"), "digit");
        assert_eq!(s("conformabli"), "conform");
        assert_eq!(s("radicalli"), "radic");
        assert_eq!(s("differentli"), "differ");
        assert_eq!(s("vileli"), "vile");
        assert_eq!(s("analogousli"), "analog");
        assert_eq!(s("vietnamization"), "vietnam");
        assert_eq!(s("predication"), "predic");
        assert_eq!(s("operator"), "oper");
        assert_eq!(s("feudalism"), "feudal");
        assert_eq!(s("decisiveness"), "decis");
        assert_eq!(s("hopefulness"), "hope");
        assert_eq!(s("callousness"), "callous");
        assert_eq!(s("formaliti"), "formal");
        assert_eq!(s("sensitiviti"), "sensit");
        assert_eq!(s("sensibiliti"), "sensibl");
    }

    #[test]
    fn step3_mappings() {
        assert_eq!(s("triplicate"), "triplic");
        assert_eq!(s("formative"), "form");
        assert_eq!(s("formalize"), "formal");
        assert_eq!(s("electriciti"), "electr");
        assert_eq!(s("electrical"), "electr");
        assert_eq!(s("hopeful"), "hope");
        assert_eq!(s("goodness"), "good");
    }

    #[test]
    fn step4_removals() {
        assert_eq!(s("revival"), "reviv");
        assert_eq!(s("allowance"), "allow");
        assert_eq!(s("inference"), "infer");
        assert_eq!(s("airliner"), "airlin");
        assert_eq!(s("gyroscopic"), "gyroscop");
        assert_eq!(s("adjustable"), "adjust");
        assert_eq!(s("defensible"), "defens");
        assert_eq!(s("irritant"), "irrit");
        assert_eq!(s("replacement"), "replac");
        assert_eq!(s("adjustment"), "adjust");
        assert_eq!(s("dependent"), "depend");
        assert_eq!(s("adoption"), "adopt");
        assert_eq!(s("communism"), "commun");
        assert_eq!(s("activate"), "activ");
        assert_eq!(s("angulariti"), "angular");
        assert_eq!(s("homologous"), "homolog");
        assert_eq!(s("effective"), "effect");
        assert_eq!(s("bowdlerize"), "bowdler");
    }

    #[test]
    fn step5_final_e_and_ll() {
        assert_eq!(s("probate"), "probat");
        assert_eq!(s("rate"), "rate");
        assert_eq!(s("cease"), "ceas");
        assert_eq!(s("controll"), "control");
        assert_eq!(s("roll"), "roll");
    }

    #[test]
    fn the_paper_family() {
        // The paper's own motivating example: parallelize, parallelization
        // and parallelism share the stem of parallel.
        let target = s("parallel");
        assert_eq!(s("parallelize"), target);
        assert_eq!(s("parallelism"), target);
        assert_eq!(s("parallelization"), target);
    }

    #[test]
    fn short_words_untouched() {
        for w in ["a", "is", "be", "on", "i", ""] {
            assert_eq!(s(w), w);
        }
    }

    #[test]
    fn non_alpha_passthrough() {
        for w in ["954", "3d", "-80", "zo\u{e9}", "hello-world"] {
            assert_eq!(s(w), w);
        }
    }

    #[test]
    fn no_panic_on_tricky_short_words() {
        // Words whose stems are empty or single letters exercise the j = -1
        // paths of the reference algorithm.
        for w in ["ies", "ing", "eed", "sss", "yyy", "ied", "oed", "ess"] {
            let _ = s(w);
        }
        assert_eq!(s("ies"), "i");
    }

    #[test]
    fn prefix_preserved_for_long_words() {
        // The dictionary's trie relies on stemming not altering the first
        // three characters of words that remain >= 3 chars long.
        for w in ["application", "happiness", "generalization", "relational"] {
            let st = s(w);
            let n = st.len().min(3).min(w.len());
            assert_eq!(&st[..n], &w[..n]);
        }
    }

    #[test]
    fn stem_into_truncation_borrows_from_input() {
        // Suffix-only stemming must return a prefix of the input without
        // touching the buffer (the zero-copy fast path).
        let mut buf = StemBuf::new();
        let w = "plastered";
        let out = stem_into(w, &mut buf);
        assert_eq!(out, "plaster");
        assert_eq!(out.as_ptr(), w.as_ptr(), "truncation must borrow the input");
        // Unchanged words borrow wholesale.
        let w = "zebra";
        let out = stem_into(w, &mut buf);
        assert_eq!(out.as_ptr(), w.as_ptr());
    }

    #[test]
    fn stem_into_handles_words_longer_than_default_buffer() {
        let mut buf = StemBuf::new();
        let long = "z".repeat(STEM_BUF_LEN * 2);
        assert_eq!(stem_into(&long, &mut buf), long);
        assert_eq!(stem(&long), long);
        let stem_of_ing = "ab".repeat(STEM_BUF_LEN);
        let long_ing = format!("{stem_of_ing}ing");
        assert_eq!(stem_into(&long_ing, &mut buf), stem_of_ing);
        assert_eq!(stem(&long_ing), stem_of_ing);
    }
}
