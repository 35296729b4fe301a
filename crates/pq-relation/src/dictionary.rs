//! The value dictionary: the map between users' tokens and the domain
//! `[n]` every algorithm works over.
//!
//! A [`ValueDictionary`] is three flat arrays:
//!
//! * `text` holds every token back to back, in id order;
//! * `offsets` holds one offset per id plus a leading 0, so token `v` is
//!   `text[offsets[v]..offsets[v + 1]]`: [`ValueDictionary::decode`] is two
//!   loads and a slice of one buffer;
//! * `slots` is an open-addressing table, linearly probed at a load of at
//!   most 1/2. A slot holds `tag << 32 | (id + 1)`, 0 when empty, where the
//!   tag is the high 32 bits of the token's hash. The slot index is taken
//!   from the same high bits, so doubling the table re-places every slot
//!   from the slot alone and never reads the text again.
//!
//! An 8-byte token costs 8 bytes of text, 4 of offset and 16–32 of table.
//! The hash is std's [`RandomState`] (SipHash-1-3 with per-process random
//! keys), so tokens crafted to collide cannot be precomputed; ids never
//! depend on the key, only on the order tokens are first seen.

use crate::tuple::Value;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

/// The most tokens a dictionary holds: an id plus one fits a slot's low 32
/// bits, and a table at load ≤ 1/2 fits the 32 bits of a tag.
const MAX_TOKENS: usize = 1 << 31;

/// The smallest table a dictionary allocates.
const MIN_SLOTS: usize = 16;

/// Bidirectional mapping between the raw string tokens of loaded files and
/// the `u64` domain values the algorithms operate on.
///
/// Every distinct token — numeric or not — receives the next fresh id, so a
/// dictionary shared across the relations of one database makes the encoded
/// values join exactly where the original tokens were equal.
#[derive(Clone)]
pub struct ValueDictionary {
    /// Every token back to back, in id order.
    text: String,
    /// `offsets[v]..offsets[v + 1]` is token `v`'s range in `text`; one
    /// more entry than there are tokens.
    offsets: Vec<u32>,
    /// `tag << 32 | (id + 1)` per occupied slot, 0 per empty one; empty or a
    /// power of two at least twice the token count.
    slots: Vec<u64>,
    hasher: RandomState,
}

/// A token listed twice where every token must be new: a checkpoint's
/// token list, or the tokens of a logged dictionary extension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepeatedToken {
    /// The repeated token.
    pub token: String,
    /// The id it already has.
    pub id: Value,
}

impl fmt::Display for RepeatedToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "token `{}` repeats id {}", self.token, self.id)
    }
}

impl std::error::Error for RepeatedToken {}

impl Default for ValueDictionary {
    fn default() -> Self {
        ValueDictionary {
            text: String::new(),
            offsets: vec![0],
            slots: Vec::new(),
            hasher: RandomState::new(),
        }
    }
}

impl ValueDictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        ValueDictionary::default()
    }

    /// The id of `token`, assigning the next fresh id on first sight.
    pub fn encode(&mut self, token: &str) -> Value {
        let tag = self.tag(token);
        match self.find(token, tag) {
            Ok(id) => id,
            Err(slot) => self.append(token, tag, slot),
        }
    }

    /// Give `token` the next fresh id, or report the id it already has.
    pub fn push_new(&mut self, token: &str) -> Result<Value, RepeatedToken> {
        let tag = self.tag(token);
        match self.find(token, tag) {
            Ok(id) => Err(RepeatedToken { token: token.to_string(), id }),
            Err(slot) => Ok(self.append(token, tag, slot)),
        }
    }

    /// The token of an id, if the id was ever assigned.
    pub fn decode(&self, value: Value) -> Option<&str> {
        let v = usize::try_from(value).ok()?;
        let end = *self.offsets.get(v.checked_add(1)?)?;
        Some(&self.text[self.offsets[v] as usize..end as usize])
    }

    /// The token of an id, falling back to the numeric form of the id
    /// itself for values outside the dictionary (e.g. synthetic data).
    pub fn decode_or_number(&self, value: Value) -> String {
        self.decode(value)
            .map(str::to_string)
            .unwrap_or_else(|| value.to_string())
    }

    /// Number of distinct tokens seen so far (the encoded domain size).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when no token has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The interned tokens in id order (the `v`-th is the token of `v`).
    pub fn tokens(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.tokens_from(0)
    }

    /// The tokens with ids from `first` on, in id order.
    pub fn tokens_from(&self, first: usize) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.offsets[first.min(self.len())..]
            .windows(2)
            .map(|range| &self.text[range[0] as usize..range[1] as usize])
    }

    /// Rebuild a dictionary from tokens in id order (e.g. read back from a
    /// checkpoint). Inverse of [`ValueDictionary::tokens`]; a token listed
    /// twice is an error, since the ids after it would shift.
    pub fn from_tokens<'a>(
        tokens: impl IntoIterator<Item = &'a str>,
    ) -> Result<Self, RepeatedToken> {
        let tokens = tokens.into_iter();
        let mut dictionary = ValueDictionary::new();
        dictionary.reserve(tokens.size_hint().0, 0);
        for token in tokens {
            dictionary.push_new(token)?;
        }
        Ok(dictionary)
    }

    /// Make room for `tokens` more tokens of `bytes` more text in all, so
    /// that encoding them allocates nothing and never grows the table.
    pub fn reserve(&mut self, tokens: usize, bytes: usize) {
        self.text.reserve(bytes);
        self.offsets.reserve(tokens);
        let wanted = self.len().saturating_add(tokens).min(MAX_TOKENS);
        if wanted * 2 > self.slots.len() {
            self.resize((wanted * 2).next_power_of_two().max(MIN_SLOTS));
        }
    }

    /// The high 32 bits of `token`'s hash: a slot's tag, and its home index
    /// at every table size.
    fn tag(&self, token: &str) -> u32 {
        (self.hasher.hash_one(token) >> 32) as u32
    }

    /// The slot a tag probes first.
    fn home(&self, tag: u32) -> usize {
        // `slots.len()` is a power of two ≤ 2^32: its log is the index width.
        let bits = self.slots.len().trailing_zeros();
        (u64::from(tag) >> (32 - bits)) as usize
    }

    /// `Ok(id)` of `token`, or `Err(slot)`: the empty slot it would take.
    fn find(&self, token: &str, tag: u32) -> Result<Value, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut at = self.home(tag);
        loop {
            let slot = self.slots[at];
            if slot == 0 {
                return Err(at);
            }
            if (slot >> 32) as u32 == tag {
                let id = (slot as u32 - 1) as Value;
                if self.decode(id) == Some(token) {
                    return Ok(id);
                }
            }
            at = (at + 1) & mask;
        }
    }

    /// Give `token`, absent and hashing to `tag`, the next id; `slot` is
    /// the empty slot [`Self::find`] stopped at.
    fn append(&mut self, token: &str, tag: u32, mut slot: usize) -> Value {
        let id = self.len();
        assert!(id < MAX_TOKENS, "value dictionary is full ({MAX_TOKENS} tokens)");
        let end = u32::try_from(self.text.len() + token.len())
            .expect("value dictionary text exceeds 4 GiB");
        if (id + 1) * 2 > self.slots.len() {
            self.resize((self.slots.len() * 2).max(MIN_SLOTS));
            slot = self.vacant(tag);
        }
        self.slots[slot] = u64::from(tag) << 32 | (id as u64 + 1);
        self.text.push_str(token);
        self.offsets.push(end);
        id as Value
    }

    /// The first empty slot on `tag`'s probe path.
    fn vacant(&self, tag: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = self.home(tag);
        while self.slots[at] != 0 {
            at = (at + 1) & mask;
        }
        at
    }

    /// Re-place every slot into a table of `len` slots (a power of two).
    fn resize(&mut self, len: usize) {
        let old = std::mem::replace(&mut self.slots, vec![0; len]);
        for slot in old.into_iter().filter(|&slot| slot != 0) {
            let at = self.vacant((slot >> 32) as u32);
            self.slots[at] = slot;
        }
    }
}

/// Two dictionaries are equal when they assign the same ids to the same
/// tokens, whatever their hash keys and table sizes.
impl PartialEq for ValueDictionary {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets && self.text == other.text
    }
}

impl Eq for ValueDictionary {}

impl fmt::Debug for ValueDictionary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.tokens()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Ids by first occurrence, the way a `HashMap<String, u64>` assigns
    /// them.
    fn reference(tokens: &[String]) -> Vec<Value> {
        let mut ids: HashMap<&str, Value> = HashMap::new();
        tokens
            .iter()
            .map(|t| {
                let next = ids.len() as Value;
                *ids.entry(t).or_insert(next)
            })
            .collect()
    }

    /// A token of a stream shaped to stress the table: empty, multi-byte
    /// UTF-8, longer than 16 bytes, differing only in the last byte, long
    /// shared prefixes — drawn from a small pool so tokens repeat.
    fn token(kind: u64, n: u64) -> String {
        let prefix = "p".repeat(40);
        match kind % 6 {
            0 => String::new(),
            1 => format!("ü→{n}ß"),
            2 => format!("a-token-longer-than-sixteen-bytes-{n}"),
            3 => format!("last-byte-{}", char::from(b'a' + (n % 26) as u8)),
            4 => format!("{prefix}{n}"),
            _ => format!("v{n:07x}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ids_follow_first_occurrence_and_decode_inverts_encode(
            draws in proptest::collection::vec((0u64..6, 0u64..40), 0..600),
        ) {
            let tokens: Vec<String> = draws.iter().map(|&(k, n)| token(k, n)).collect();
            let mut dictionary = ValueDictionary::new();
            let ids: Vec<Value> = tokens.iter().map(|t| dictionary.encode(t)).collect();
            prop_assert_eq!(&ids, &reference(&tokens));
            for (token, &id) in tokens.iter().zip(&ids) {
                prop_assert_eq!(dictionary.decode(id), Some(token.as_str()));
            }
            prop_assert_eq!(dictionary.decode(dictionary.len() as Value), None);
            let rebuilt = ValueDictionary::from_tokens(dictionary.tokens()).unwrap();
            prop_assert_eq!(&rebuilt, &dictionary);
        }
    }

    #[test]
    fn ids_survive_several_table_doublings() {
        let mut dictionary = ValueDictionary::new();
        let tokens: Vec<String> = (0..20_000).map(|i| format!("v{i:07x}")).collect();
        for (i, t) in tokens.iter().enumerate() {
            assert_eq!(dictionary.encode(t), i as Value);
        }
        assert!(dictionary.slots.len() >= 1 << 15, "the table doubled from {MIN_SLOTS}");
        for (i, t) in tokens.iter().enumerate() {
            assert_eq!(dictionary.encode(t), i as Value, "{t} moved");
            assert_eq!(dictionary.decode(i as Value), Some(t.as_str()));
        }
        assert_eq!(dictionary.len(), tokens.len());
    }

    #[test]
    fn different_hash_keys_assign_identical_ids() {
        let tokens: Vec<String> = (0..5_000).map(|i| format!("{}", i * 7919 % 3_001)).collect();
        let mut first = ValueDictionary::new();
        let mut second = ValueDictionary::new();
        let a: Vec<Value> = tokens.iter().map(|t| first.encode(t)).collect();
        let b: Vec<Value> = tokens.iter().map(|t| second.encode(t)).collect();
        assert_ne!(first.tag("x"), second.tag("x"), "two processes' worth of keys");
        assert_eq!(a, b);
        assert_eq!(first, second);
    }

    #[test]
    fn the_reserved_path_equals_incremental_encode() {
        let tokens: Vec<String> = (0..3_000).map(|i| format!("t{}", i % 1_700)).collect();
        let bytes = tokens.iter().map(String::len).sum();
        let mut reserved = ValueDictionary::new();
        reserved.reserve(tokens.len(), bytes);
        let slots = reserved.slots.len();
        let mut incremental = ValueDictionary::new();
        for t in &tokens {
            assert_eq!(reserved.encode(t), incremental.encode(t));
        }
        assert_eq!(reserved.slots.len(), slots, "a reserved table never grows");
        assert_eq!(reserved, incremental);
    }

    #[test]
    fn from_tokens_of_tokens_is_the_identity_and_rejects_repeats() {
        let mut dictionary = ValueDictionary::new();
        for t in ["", "a", "ü", "a", "bb", ""] {
            dictionary.encode(t);
        }
        let rebuilt = ValueDictionary::from_tokens(dictionary.tokens()).unwrap();
        assert_eq!(rebuilt, dictionary);
        assert_eq!(rebuilt.tokens().collect::<Vec<_>>(), ["", "a", "ü", "bb"]);
        assert_eq!(rebuilt.tokens_from(2).collect::<Vec<_>>(), ["ü", "bb"]);
        assert_eq!(rebuilt.tokens_from(9).count(), 0);

        let err = ValueDictionary::from_tokens(["x", "y", "x"]).unwrap_err();
        assert_eq!(err, RepeatedToken { token: "x".into(), id: 0 });
    }
}
