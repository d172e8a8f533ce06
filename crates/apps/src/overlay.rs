//! Host-side per-vertex bookkeeping for the serial traversal bodies.

/// Values written during the current window, one slot per vertex. A slot
/// counts only while its stamp is the current window's, so opening a
/// window forgets every value of the last in O(1) — the dense replacement
/// for a hash map cleared per window.
#[derive(Debug)]
pub(crate) struct WindowOverlay<T> {
    slots: Vec<(u32, T)>,
    window: u32,
}

impl<T: Copy + Default> WindowOverlay<T> {
    /// An overlay over vertices `0..n`, its first window open and empty.
    pub(crate) fn new(n: usize) -> Self {
        WindowOverlay {
            slots: vec![(0, T::default()); n],
            window: 1,
        }
    }

    /// Opens a new window, forgetting every value set in the last.
    pub(crate) fn next_window(&mut self) {
        self.window = self
            .window
            .checked_add(1)
            .expect("more than u32::MAX windows over one overlay");
    }

    /// The value set for `v` in the current window, if any.
    pub(crate) fn get(&self, v: u32) -> Option<T> {
        let (stamp, value) = self.slots[v as usize];
        (stamp == self.window).then_some(value)
    }

    /// Sets `v`'s value for the current window.
    pub(crate) fn set(&mut self, v: u32, value: T) {
        self.slots[v as usize] = (self.window, value);
    }
}
