//! The frozen Porter stemmer: the pre-optimization `Vec`-per-word
//! implementation of `ii_text::porter`, which heap-copies every candidate
//! word before applying the exact same rules. `ii_text::porter::stem_into`
//! and `stem` must agree with it byte for byte; `tests/parse_differential.rs`
//! fuzzes that, and the parse oracle ([`crate::parse`]) stems with it.

// The step functions mirror Porter's reference C implementation
// case-for-case; collapsing matches or merging identical arms would
// obscure the correspondence that makes the port auditable.
#![allow(clippy::collapsible_match, clippy::if_same_then_else)]

use std::borrow::Cow;

/// Stem a single token (the naive allocating implementation).
pub fn stem(word: &str) -> Cow<'_, str> {
    let b = word.as_bytes();
    if b.len() <= 2 || !b.iter().all(u8::is_ascii_lowercase) {
        return Cow::Borrowed(word);
    }
    let mut s = Stemmer { b: b.to_vec(), k: b.len() - 1, j: 0 };
    s.step1ab();
    s.step1c();
    s.step2();
    s.step3();
    s.step4();
    s.step5();
    if s.k + 1 == b.len() && s.b[..=s.k] == *b {
        Cow::Borrowed(word)
    } else {
        Cow::Owned(
            String::from_utf8(s.b[..=s.k].to_vec()).expect("stemmer output is ascii"),
        )
    }
}

struct Stemmer {
    b: Vec<u8>,
    k: usize,
    j: isize,
}

impl Stemmer {
    fn cons(&self, i: usize) -> bool {
        match self.b[i] {
            b'a' | b'e' | b'i' | b'o' | b'u' => false,
            b'y' => i == 0 || !self.cons(i - 1),
            _ => true,
        }
    }

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

    fn vowel_in_stem(&self) -> bool {
        (0..=self.j).any(|i| !self.cons(i as usize))
    }

    fn doublec(&self, i: usize) -> bool {
        i >= 1 && self.b[i] == self.b[i - 1] && self.cons(i)
    }

    fn cvc(&self, i: isize) -> bool {
        if i < 2 {
            return false;
        }
        let i = i as usize;
        if !self.cons(i) || self.cons(i - 1) || !self.cons(i - 2) {
            return false;
        }
        !matches!(self.b[i], b'w' | b'x' | b'y')
    }

    fn ends(&mut self, s: &[u8]) -> bool {
        let l = s.len();
        if l > self.k + 1 || &self.b[self.k + 1 - l..=self.k] != s {
            return false;
        }
        self.j = self.k as isize - l as isize;
        true
    }

    fn setto(&mut self, s: &[u8]) {
        self.b.truncate((self.j + 1) as usize);
        self.b.extend_from_slice(s);
        self.k = (self.j + s.len() as isize) as usize;
    }

    fn r(&mut self, s: &[u8]) {
        if self.m() > 0 {
            self.setto(s);
        }
    }

    fn step1ab(&mut self) {
        if self.b[self.k] == b's' {
            if self.ends(b"sses") {
                self.k -= 2;
            } else if self.ends(b"ies") {
                self.setto(b"i");
            } else if self.b[self.k - 1] != b's' {
                self.k -= 1;
            }
        }
        if self.ends(b"eed") {
            if self.m() > 0 {
                self.k -= 1;
            }
        } else if (self.ends(b"ed") || self.ends(b"ing")) && self.vowel_in_stem() {
            self.k = self.j as usize;
            if self.ends(b"at") {
                self.setto(b"ate");
            } else if self.ends(b"bl") {
                self.setto(b"ble");
            } else if self.ends(b"iz") {
                self.setto(b"ize");
            } else if self.doublec(self.k) {
                self.k -= 1;
                if matches!(self.b[self.k], b'l' | b's' | b'z') {
                    self.k += 1;
                }
            } else if self.m() == 1 && self.cvc(self.k as isize) {
                self.j = self.k as isize;
                self.setto(b"e");
            }
        }
        self.b.truncate(self.k + 1);
    }

    fn step1c(&mut self) {
        if self.b[self.k] == b'y' {
            self.j = self.k as isize - 1;
            if self.vowel_in_stem() {
                self.b[self.k] = b'i';
            }
        }
    }

    fn step2(&mut self) {
        if self.k < 1 {
            return;
        }
        match self.b[self.k - 1] {
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

    fn step3(&mut self) {
        match self.b[self.k] {
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

    fn step4(&mut self) {
        if self.k < 1 {
            return;
        }
        let matched = match self.b[self.k - 1] {
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
                    && matches!(self.b[self.j as usize], b's' | b't'))
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
            self.b.truncate(self.k + 1);
        }
    }

    fn step5(&mut self) {
        self.j = self.k as isize;
        if self.b[self.k] == b'e' {
            let a = self.m();
            if a > 1 || (a == 1 && !self.cvc(self.k as isize - 1)) {
                self.k -= 1;
            }
        }
        if self.b[self.k] == b'l' && self.doublec(self.k) && self.m() > 1 {
            self.k -= 1;
        }
        self.b.truncate(self.k + 1);
    }
}

#[cfg(test)]
mod tests {
    use ii_core::text::porter::{self, StemBuf};

    #[test]
    fn stem_into_agrees_with_reference() {
        let mut buf = StemBuf::new();
        for w in [
            "caresses", "ponies", "ties", "cats", "feed", "agreed", "hopping", "happy",
            "relational", "vietnamization", "parallelize", "sky", "the", "zo\u{e9}",
            "-80", "a", "", "controll", "sensibiliti", "filing",
        ] {
            assert_eq!(porter::stem_into(w, &mut buf), super::stem(w).as_ref(), "word {w:?}");
            assert_eq!(porter::stem(w), super::stem(w), "cow api, word {w:?}");
        }
    }
}
