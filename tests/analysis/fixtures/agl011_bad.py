"""Known-bad corpus for AGL011: unit mixing and unit-less delays."""


def add_ns_and_pages(lat_ns, num_pages):
    return lat_ns + num_pages


def subtract_bytes_from_ns(deadline_ns, len_bytes):
    return deadline_ns - len_bytes


def compare_cycles_to_bytes(busy_cycles, nbytes):
    return busy_cycles < nbytes


def bare_constant_delay(sim):
    sim.schedule_at(500, print)


def bytes_as_delay(sim, transfer_bytes):
    sim.schedule_at(transfer_bytes, print)


def declared_ns_gets_pages(num_pages):
    wait_ns = num_pages
    return wait_ns
