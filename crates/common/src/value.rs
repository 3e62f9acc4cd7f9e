//! Keys and values stored in the partitioned tables.

use std::alloc::{self, Layout};
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicU32, Ordering};

/// Primary-key type. Composite keys (e.g. TPC-C `(w_id, d_id, c_id)`) are
/// encoded into a single `u64` by the workload crates.
pub type Key = u64;

/// An opaque row payload.
///
/// The engine never interprets the payload; workloads encode their columns
/// into it (YCSB uses fixed-size filler, TPC-C serialises typed rows). The
/// payload is reference-counted so that reads do not copy the full row while
/// a transaction is running. Its bytes live in the same allocation as the
/// reference count, so a value is one allocation and reading it one pointer
/// chase; the empty value allocates nothing. The handle is one pointer wide
/// (an `Arc<[u8]>` would be two, in every record, log write, image entry
/// and copy of a store), and `Option<Value>` is too.
pub struct Value(NonNull<Header>);

/// The front of a value's allocation; its `len` bytes follow it. Eight
/// bytes, where `Arc`'s strong and weak counts take sixteen.
#[repr(C)]
struct Header {
    refs: AtomicU32,
    len: u32,
}

// SAFETY: as for `Arc<[u8]>`: the bytes are never written once `build`
// returns, and the count is atomic.
unsafe impl Send for Value {}
unsafe impl Sync for Value {}

impl Value {
    /// The empty value (a delete's buffered write, an insert's slot before
    /// its install). Its pointer is never followed.
    pub const EMPTY: Value = Value(NonNull::dangling());

    /// A value holding a copy of `bytes`. Hot paths build their bytes in
    /// place with [`Value::build`] instead.
    pub fn new(bytes: Vec<u8>) -> Self {
        Value::from(bytes.as_slice())
    }

    /// A value of `len` bytes written in place, in its one allocation:
    /// `fill` receives them zeroed.
    pub fn build(len: usize, fill: impl FnOnce(&mut [u8])) -> Self {
        if len == 0 {
            fill(&mut []);
            return Value::EMPTY;
        }
        let header = Header {
            refs: AtomicU32::new(1),
            len: u32::try_from(len).expect("a value holds less than 4 GiB"),
        };
        let layout = Self::layout(len);
        // SAFETY: the layout holds a header, so it is not zero-sized.
        let raw = unsafe { alloc::alloc_zeroed(layout) }.cast::<Header>();
        let Some(ptr) = NonNull::new(raw) else {
            alloc::handle_alloc_error(layout)
        };
        // SAFETY: the allocation is fresh and sized and aligned for a header.
        unsafe { ptr.write(header) };
        let value = Value(ptr);
        // SAFETY: the `len` bytes after the header are allocated, zeroed and
        // not yet shared; `value` frees them if `fill` panics.
        fill(unsafe { std::slice::from_raw_parts_mut(value.bytes_ptr(), len) });
        value
    }

    /// A value holding `n` zero bytes — used by YCSB-style fillers.
    pub fn zeroed(n: usize) -> Self {
        Value::build(n, |_| {})
    }

    /// Encode a `u64` counter as a value (used by Smallbank/YCSB counters).
    pub fn from_u64(x: u64) -> Self {
        Value::from(&x.to_le_bytes()[..])
    }

    /// Decode a value previously produced by [`Value::from_u64`].
    /// Returns 0 for payloads that are too short.
    pub fn as_u64(&self) -> u64 {
        let b = self.as_bytes();
        if b.len() >= 8 {
            u64::from_le_bytes(b[..8].try_into().unwrap())
        } else {
            0
        }
    }

    pub fn len(&self) -> usize {
        self.header().map_or(0, |h| h.len as usize)
    }

    pub fn is_empty(&self) -> bool {
        self.header().is_none()
    }

    pub fn as_bytes(&self) -> &[u8] {
        match self.header() {
            None => &[],
            // SAFETY: a held value's `len` bytes follow its header and are
            // no longer written.
            Some(h) => unsafe { std::slice::from_raw_parts(self.bytes_ptr(), h.len as usize) },
        }
    }

    /// The header of a non-empty value; `None` for [`Value::EMPTY`].
    fn header(&self) -> Option<&Header> {
        if self.0 == NonNull::dangling() {
            return None;
        }
        // SAFETY: every value but `EMPTY` points at a live allocation it
        // holds one count of.
        Some(unsafe { self.0.as_ref() })
    }

    /// The first byte after the header. Only for a non-empty value.
    fn bytes_ptr(&self) -> *mut u8 {
        // SAFETY: a non-empty value's allocation extends past its header.
        unsafe { self.0.as_ptr().cast::<u8>().add(size_of::<Header>()) }
    }

    fn layout(len: usize) -> Layout {
        Layout::from_size_align(size_of::<Header>() + len, align_of::<Header>())
            .expect("a value's size fits a layout")
    }
}

impl Clone for Value {
    fn clone(&self) -> Self {
        if let Some(h) = self.header() {
            // As `Arc`: stop before a count could wrap and free a live value.
            if h.refs.fetch_add(1, Ordering::Relaxed) > u32::MAX / 2 {
                std::process::abort();
            }
        }
        Value(self.0)
    }
}

impl Drop for Value {
    fn drop(&mut self) {
        let Some(h) = self.header() else { return };
        if h.refs.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        // Every other handle's use of the bytes happens before the free.
        fence(Ordering::Acquire);
        let layout = Self::layout(h.len as usize);
        // SAFETY: this was the last handle, and `build` allocated with this
        // layout.
        unsafe { alloc::dealloc(self.0.as_ptr().cast(), layout) };
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Value {}

impl std::fmt::Debug for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Value").field(&self.as_bytes()).finish()
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::new(v)
    }
}

impl From<&[u8]> for Value {
    fn from(v: &[u8]) -> Self {
        Value::build(v.len(), |bytes| bytes.copy_from_slice(v))
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::from_u64(v)
    }
}

/// A row as seen by a transaction: the payload plus the TicToc metadata that
/// was current at read time. Protocols that do not use TicToc simply ignore
/// the timestamps.
#[derive(Debug, Clone)]
pub struct Row {
    pub value: Value,
    /// Write timestamp of the version that was read.
    pub wts: u64,
    /// Read timestamp (end of the valid interval) observed at read time.
    pub rts: u64,
}

impl Row {
    pub fn new(value: Value, wts: u64, rts: u64) -> Self {
        Row { value, wts, rts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_u64_roundtrip() {
        let v = Value::from_u64(0xDEAD_BEEF_0BAD_F00D);
        assert_eq!(v.as_u64(), 0xDEAD_BEEF_0BAD_F00D);
    }

    #[test]
    fn short_value_decodes_to_zero() {
        assert_eq!(Value::new(vec![1, 2, 3]).as_u64(), 0);
    }

    #[test]
    fn zeroed_has_requested_length() {
        assert_eq!(Value::zeroed(100).len(), 100);
        assert!(!Value::zeroed(1).is_empty());
        assert!(Value::new(vec![]).is_empty());
    }

    #[test]
    fn value_clone_shares_allocation() {
        let v = Value::zeroed(64);
        let w = v.clone();
        assert!(std::ptr::eq(v.as_bytes(), w.as_bytes()));
    }

    #[test]
    fn built_values_hold_what_fill_wrote() {
        let v = Value::build(10, |b| b[..8].copy_from_slice(&7u64.to_le_bytes()));
        assert_eq!((v.len(), v.as_u64()), (10, 7));
        assert_eq!(&v.as_bytes()[8..], &[0, 0]);
        // Equality is by bytes, however the value was made.
        assert_eq!(Value::build(8, |b| b.fill(1)), Value::new(vec![1; 8]));
        assert_eq!(Value::build(0, |_| {}), Value::EMPTY);
        assert_eq!(Value::new(vec![]), Value::from(&[][..]));
        assert!(Value::EMPTY.is_empty());
    }

    #[test]
    fn a_value_is_one_pointer_wide() {
        assert_eq!(size_of::<Value>(), size_of::<usize>());
        assert_eq!(size_of::<Option<Value>>(), size_of::<usize>());
    }

    #[test]
    fn clones_dropped_on_other_threads_leave_the_bytes_intact() {
        let v = Value::build(100, |b| b.fill(7));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let v = &v;
                s.spawn(move || {
                    let clones: Vec<Value> = (0..1000).map(|_| v.clone()).collect();
                    assert!(clones.iter().all(|c| c == v));
                });
            }
        });
        let last = v.clone();
        drop(v);
        assert_eq!(last.as_bytes(), &[7; 100][..]);
        assert_eq!(Value::EMPTY.clone(), Value::EMPTY);
    }
}
