//! Occupancy-modelled shared busses.

/// A bus modelled as a single resource with an occupancy per transaction.
///
/// Requests arriving while the bus is busy queue behind it; the returned
/// grant time reflects the queuing delay. This is the level of modelling
/// the paper applies ("we extend SimpleScalar to model … queuing accurately
/// at both the L1/L2 and L2/memory busses", Section 5).
#[derive(Debug, Clone)]
pub struct Bus {
    /// Per-channel next-free times (the paper models two channels between
    /// the L1 and L2 so a request can issue during a fill).
    channels: Vec<f64>,
    busy_cycles: f64,
    transactions: u64,
}

impl Default for Bus {
    fn default() -> Self {
        Bus::new()
    }
}

impl Bus {
    /// Creates an idle single-channel bus.
    pub fn new() -> Self {
        Bus::with_channels(1)
    }

    /// Creates an idle bus with `channels` independent channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn with_channels(channels: usize) -> Self {
        assert!(channels > 0, "bus needs at least one channel");
        Bus { channels: vec![0.0; channels], busy_cycles: 0.0, transactions: 0 }
    }

    #[inline]
    fn best_channel(&self) -> usize {
        let mut best = 0;
        for (i, &t) in self.channels.iter().enumerate().skip(1) {
            if t < self.channels[best] {
                best = i;
            }
        }
        best
    }

    /// Requests the bus at time `at` for `occupancy` cycles; returns the
    /// grant (start) time on the least-loaded channel.
    pub fn acquire(&mut self, at: f64, occupancy: f64) -> f64 {
        let ch = self.best_channel();
        let start = at.max(self.channels[ch]);
        self.channels[ch] = start + occupancy;
        self.busy_cycles += occupancy;
        self.transactions += 1;
        start
    }

    /// Total cycles of occupancy accumulated.
    pub fn busy_cycles(&self) -> f64 {
        self.busy_cycles
    }

    /// Transactions granted.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_bus_grants_immediately() {
        let mut b = Bus::new();
        assert_eq!(b.acquire(10.0, 3.0), 10.0);
    }

    #[test]
    fn busy_bus_queues() {
        let mut b = Bus::new();
        b.acquire(10.0, 3.0);
        assert_eq!(b.acquire(11.0, 3.0), 13.0, "second request waits");
        assert_eq!(b.acquire(16.0, 3.0), 16.0, "a request at the release time is granted at once");
        assert_eq!(b.acquire(100.0, 3.0), 100.0, "later request sees idle bus");
    }

    #[test]
    fn occupancy_accumulates() {
        let mut b = Bus::new();
        b.acquire(0.0, 2.0);
        b.acquire(0.0, 2.0);
        assert_eq!(b.busy_cycles(), 4.0);
        assert_eq!(b.transactions(), 2);
    }
}
