"""Slot-accurate Bluetooth 1.1 baseband simulator (the BlueHoc substitute).

Layers:

* identity — :class:`~repro.bluetooth.address.BDAddr`,
  :class:`~repro.bluetooth.btclock.BluetoothClock`,
  :class:`~repro.bluetooth.device.BluetoothDevice`
* hopping — inquiry trains and the master transmit schedule
  (:mod:`~repro.bluetooth.hopping`)
* discovery — :class:`~repro.bluetooth.inquiry.InquiryProcedure` (master)
  and :class:`~repro.bluetooth.swarm.InquiryScanSwarm` (every scanning
  slave of one piconet, with the v1.1 random backoff; one row per slave)
* connection setup — :class:`~repro.bluetooth.paging.SlotLevelPager`
  (the §3.2 page rendezvous),
  :class:`~repro.bluetooth.connection.Connection`,
  :class:`~repro.bluetooth.piconet.Piconet`
"""
