//! Indexed binary max-heap ordered by variable activity.
//!
//! This is the classic MiniSat "order heap": it supports `decrease`-free
//! activity bumps (activities only grow, so bumping means sifting up),
//! membership queries, and removal of the maximum element, all keyed by the
//! dense variable index.

use crate::Var;

/// Max-heap over variables keyed by an external activity array.
#[derive(Default, Debug, Clone)]
pub(crate) struct ActivityHeap {
    /// Heap of variable indices.
    heap: Vec<u32>,
    /// `pos[v]` is the index of `v` in `heap`, or `NONE` if absent.
    pos: Vec<u32>,
}

const NONE: u32 = u32::MAX;

impl ActivityHeap {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register one more variable (initially absent from the heap).
    pub fn grow(&mut self) {
        self.pos.push(NONE);
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn contains(&self, v: Var) -> bool {
        self.pos[v.index()] != NONE
    }

    /// Insert `v` if absent.
    pub fn insert(&mut self, v: Var, activity: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.pos[v.index()] = self.heap.len() as u32;
        self.heap.push(v.0);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Restore heap order for `v` after its activity increased.
    pub fn update(&mut self, v: Var, activity: &[f64]) {
        let p = self.pos[v.index()];
        if p != NONE {
            self.sift_up(p as usize, activity);
        }
    }

    /// Remove and return the variable with maximal activity.
    pub fn pop_max(&mut self, activity: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("nonempty");
        self.pos[top as usize] = NONE;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(Var(top))
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let pv = self.heap[parent];
            if activity[v as usize] <= activity[pv as usize] {
                break;
            }
            self.heap[i] = pv;
            self.pos[pv as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let child =
                if r < n && activity[self.heap[r] as usize] > activity[self.heap[l] as usize] {
                    r
                } else {
                    l
                };
            let cv = self.heap[child];
            if activity[cv as usize] <= activity[v as usize] {
                break;
            }
            self.heap[i] = cv;
            self.pos[cv as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(acts: &[f64]) -> ActivityHeap {
        let mut h = ActivityHeap::new();
        for _ in 0..acts.len() {
            h.grow();
        }
        for i in 0..acts.len() {
            h.insert(Var(i as u32), acts);
        }
        h
    }

    #[test]
    fn pops_in_activity_order() {
        let acts = [0.5, 3.0, 1.0, 2.0, 0.1];
        let mut h = setup(&acts);
        let order: Vec<u32> = std::iter::from_fn(|| h.pop_max(&acts).map(|v| v.0)).collect();
        assert_eq!(order, vec![1, 3, 2, 0, 4]);
        assert!(h.is_empty());
    }

    #[test]
    fn update_after_bump_moves_var_up() {
        let mut acts = vec![1.0, 2.0, 3.0];
        let mut h = setup(&acts);
        acts[0] = 10.0;
        h.update(Var(0), &acts);
        assert_eq!(h.pop_max(&acts), Some(Var(0)));
    }

    #[test]
    fn reinsert_after_pop() {
        let acts = [1.0, 2.0];
        let mut h = setup(&acts);
        let v = h.pop_max(&acts).unwrap();
        assert!(!h.contains(v));
        h.insert(v, &acts);
        assert!(h.contains(v));
        assert_eq!(h.pop_max(&acts), Some(Var(1)));
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let acts = [1.0];
        let mut h = setup(&acts);
        h.insert(Var(0), &acts);
        assert_eq!(h.pop_max(&acts), Some(Var(0)));
        assert_eq!(h.pop_max(&acts), None);
    }
}
