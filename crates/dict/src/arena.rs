//! The string arena backing the dictionary.
//!
//! Term remainders are allocated from a flat, append-only arena addressed
//! by `u32` offsets — the "pointers" of Table II. This keeps the layout
//! position-independent (the GPU copy of the arena is the same bytes at a
//! different base address) and makes serialization trivial.

/// Append-only store for term-string remainders: each allocation is a
/// length byte followed by the bytes (the paper's Fig 6 representation;
/// remainders are ≤ 251 bytes since terms are ≤ 255 and 4 live in-cache).
#[derive(Clone, Debug, Default)]
pub struct StringArena {
    bytes: Vec<u8>,
}

impl StringArena {
    /// Create an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild an arena from raw backing bytes (e.g. downloaded from the
    /// simulated GPU's string area, which uses the identical layout).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        StringArena { bytes }
    }

    /// Store `rest` and return its offset.
    pub fn alloc(&mut self, rest: &[u8]) -> u32 {
        assert!(rest.len() <= 255, "string remainder too long");
        let off = self.bytes.len() as u32;
        self.bytes.push(rest.len() as u8);
        self.bytes.extend_from_slice(rest);
        off
    }

    /// Fetch the remainder stored at `off`.
    pub fn get(&self, off: u32) -> &[u8] {
        let off = off as usize;
        let len = self.bytes[off] as usize;
        &self.bytes[off + 1..off + 1 + len]
    }

    /// Total bytes held (memory accounting).
    pub fn len_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Raw backing bytes (device-memory upload path).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_arena_roundtrip() {
        let mut a = StringArena::new();
        let o1 = a.alloc(b"lication");
        let o2 = a.alloc(b"");
        let o3 = a.alloc(b"xyz");
        assert_eq!(a.get(o1), b"lication");
        assert_eq!(a.get(o2), b"");
        assert_eq!(a.get(o3), b"xyz");
        assert_eq!(a.len_bytes(), (1 + 8 + 1) + 1 + 3);
    }

    #[test]
    #[should_panic(expected = "remainder too long")]
    fn oversized_string_rejected() {
        StringArena::new().alloc(&[0u8; 256]);
    }
}
