//! Fixture: panicking hot path, raw float equality.
//! Never compiled.

pub struct Fragile {
    items: Vec<u64>,
    weight: f64,
}

impl Fragile {
    pub fn insert(&mut self, item: u64) {
        let last = self.items.last().copied().unwrap();
        if self.weight == 1.0 {
            panic!("full");
        }
        self.items.push(item.max(last));
    }

    pub fn helper_may_unwrap(&self) -> u64 {
        // Not a hot-path fn name: unwrap is allowed here.
        self.items.first().copied().unwrap()
    }
}
