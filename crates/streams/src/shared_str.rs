//! [`SharedStr`]: an immutable, reference-counted string held in one word.

use std::alloc::{self, Layout};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem;
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::atomic::{self, AtomicUsize};

/// An immutable string shared by reference counting — the payload of
/// [`crate::value::Value::Str`].
///
/// `Arc<str>` is a fat pointer (address and length), which made every
/// `Value` three words, whether it held a string or not. A `SharedStr` is
/// one pointer to a single heap block that holds the reference count, the
/// length and the bytes, so a `Value` is two words and a two-field tuple
/// four. Cloning it bumps the count; building one (from a `&str`, a
/// `String`, or bytes off the wire) is one allocation.
///
/// Equality, ordering, hashing and formatting are those of the `str`.
pub struct SharedStr {
    block: NonNull<Header>,
}

/// The front of a block; the string's bytes follow it.
#[repr(C)]
struct Header {
    count: AtomicUsize,
    len: usize,
}

/// Where the bytes start in a block.
const BYTES: usize = mem::size_of::<Header>();

/// The largest reference count before a clone aborts, as `Arc`'s: far
/// beyond what memory can hold, so only leaked clones can reach it.
const MAX_COUNT: usize = isize::MAX as usize;

// SAFETY: the bytes are written once, before the block is shared, and never
// again; the count is atomic, and the block is freed by whichever handle
// takes it to zero after an acquire fence — the contract `Arc<str>` keeps.
unsafe impl Send for SharedStr {}
// SAFETY: as for `Send`: `&SharedStr` only reads the immutable bytes or
// moves the count atomically.
unsafe impl Sync for SharedStr {}

impl SharedStr {
    /// A new block holding a copy of `s`.
    #[inline]
    pub fn new(s: &str) -> SharedStr {
        let layout = Self::layout(s.len());
        // SAFETY: `layout` is at least the header, so its size is not zero.
        let raw = unsafe { alloc::alloc(layout) };
        let Some(block) = NonNull::new(raw.cast::<Header>()) else {
            alloc::handle_alloc_error(layout)
        };
        // SAFETY: `raw` is a fresh allocation of `layout`: aligned for
        // `Header`, with room for it and `s.len()` bytes behind it, and no
        // other handle sees it yet.
        unsafe {
            block.as_ptr().write(Header { count: AtomicUsize::new(1), len: s.len() });
            std::ptr::copy_nonoverlapping(s.as_ptr(), raw.add(BYTES), s.len());
        }
        SharedStr { block }
    }

    /// The string.
    #[inline]
    pub fn as_str(&self) -> &str {
        let len = self.header().len;
        // SAFETY: the block lives while `self` holds a count; its `len`
        // bytes follow the header and were copied from a `str` when it was
        // built, so they are valid UTF-8 and never change.
        unsafe {
            let bytes = self.block.as_ptr().cast::<u8>().add(BYTES);
            std::str::from_utf8_unchecked(std::slice::from_raw_parts(bytes, len))
        }
    }

    /// Whether two handles share one block.
    fn ptr_eq(a: &SharedStr, b: &SharedStr) -> bool {
        a.block == b.block
    }

    #[inline]
    fn header(&self) -> &Header {
        // SAFETY: the block lives while `self` holds a count, and its
        // header was written before the block was shared.
        unsafe { self.block.as_ref() }
    }

    /// The block of a string of `len` bytes.
    fn layout(len: usize) -> Layout {
        BYTES
            .checked_add(len)
            .and_then(|size| Layout::from_size_align(size, mem::align_of::<Header>()).ok())
            .expect("a string too long for one allocation")
    }
}

impl Clone for SharedStr {
    #[inline]
    fn clone(&self) -> SharedStr {
        // Relaxed, as `Arc`'s: a new handle is made from a live one, which
        // keeps the block alive meanwhile.
        let old = self.header().count.fetch_add(1, atomic::Ordering::Relaxed);
        if old > MAX_COUNT {
            std::process::abort();
        }
        SharedStr { block: self.block }
    }
}

impl SharedStr {
    /// Frees the block of the last handle. Out of line, as `Arc`'s: the
    /// inlined `drop` of every `Value` is then the decrement alone.
    #[inline(never)]
    fn free(&mut self) {
        // Every other handle's use of the block happens before its release
        // decrement; this fence orders them all before the free.
        atomic::fence(atomic::Ordering::Acquire);
        let layout = Self::layout(self.header().len);
        // SAFETY: the count reached zero, so this is the last handle; the
        // block was allocated with this very layout (`len` never changes).
        unsafe { alloc::dealloc(self.block.as_ptr().cast::<u8>(), layout) }
    }
}

impl Drop for SharedStr {
    #[inline]
    fn drop(&mut self) {
        if self.header().count.fetch_sub(1, atomic::Ordering::Release) == 1 {
            self.free();
        }
    }
}

impl Deref for SharedStr {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for SharedStr {
    #[inline]
    fn eq(&self, other: &SharedStr) -> bool {
        SharedStr::ptr_eq(self, other) || self.as_str() == other.as_str()
    }
}

impl Eq for SharedStr {}

impl PartialOrd for SharedStr {
    fn partial_cmp(&self, other: &SharedStr) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SharedStr {
    fn cmp(&self, other: &SharedStr) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for SharedStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Debug for SharedStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for SharedStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl From<&str> for SharedStr {
    #[inline]
    fn from(s: &str) -> SharedStr {
        SharedStr::new(s)
    }
}

impl From<String> for SharedStr {
    #[inline]
    fn from(s: String) -> SharedStr {
        SharedStr::new(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn a_shared_str_is_one_word() {
        assert_eq!(mem::size_of::<SharedStr>(), mem::size_of::<usize>());
        assert_eq!(mem::size_of::<Option<SharedStr>>(), mem::size_of::<usize>());
    }

    #[test]
    fn the_empty_string_and_a_long_one_round_trip() {
        let empty = SharedStr::from("");
        assert_eq!(empty.as_str(), "");
        assert!(empty.is_empty());
        assert_eq!(empty, SharedStr::from(String::new()));

        let long: String = (0..100_000).map(|i| char::from(b'a' + (i % 26) as u8)).collect();
        let shared = SharedStr::from(long.clone());
        assert_eq!(shared.len(), 100_000);
        assert_eq!(shared.as_str(), long);
        let multibyte = SharedStr::from("hé — ünïcødé ✓");
        assert_eq!(&*multibyte, "hé — ünïcødé ✓");
    }

    #[test]
    fn a_clone_shares_the_block_until_the_last_handle_goes() {
        let a = SharedStr::from("shared");
        let b = a.clone();
        assert!(SharedStr::ptr_eq(&a, &b));
        assert_eq!(a.header().count.load(atomic::Ordering::Relaxed), 2);
        drop(a);
        assert_eq!(b.header().count.load(atomic::Ordering::Relaxed), 1);
        assert_eq!(b.as_str(), "shared");
        assert!(!SharedStr::ptr_eq(&b, &SharedStr::from("shared")));
    }

    #[test]
    fn eq_ord_hash_and_formatting_are_those_of_the_str() {
        let words = ["", "a", "ab", "b", "B", "é", "zz", "a\u{0}", "hello world"];
        for x in words {
            let sx = SharedStr::from(x);
            assert_eq!(hash_of(&sx), hash_of(x), "{x:?}");
            assert_eq!(format!("{sx}"), x);
            assert_eq!(format!("{sx:?}"), format!("{x:?}"));
            for y in words {
                let sy = SharedStr::from(y);
                assert_eq!(sx == sy, x == y, "{x:?} == {y:?}");
                assert_eq!(sx.cmp(&sy), x.cmp(y), "{x:?} cmp {y:?}");
                assert_eq!(sx.partial_cmp(&sy), x.partial_cmp(y));
            }
        }
    }
}
