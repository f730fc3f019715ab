/**
 * @file
 * Unit tests for the host main-memory model, and for the demand-zero
 * backing that host memory and SDRAM share: never-written bytes read
 * 0, untouched capacity stays out of the resident set, and a store
 * that cannot be mapped is a configuration error.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>

#include "mem/host_memory.hh"
#include "nic/controller.hh"

using namespace tengig;

namespace {

/** This process's resident set size in bytes (VmRSS). */
std::size_t
residentBytes()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stoull(line.substr(6)) * 1024; // kB
    }
    ADD_FAILURE() << "no VmRSS line in /proc/self/status";
    return 0;
}

} // namespace

TEST(HostMemory, ReadWriteRoundTrip)
{
    HostMemory hm(1024 * 1024);
    const char msg[] = "frame payload bytes";
    hm.write(0x100, msg, sizeof(msg));
    char out[sizeof(msg)] = {};
    hm.read(0x100, out, sizeof(msg));
    EXPECT_STREQ(out, msg);
}

TEST(HostMemory, OutOfRangePanics)
{
    HostMemory hm(1024);
    char b;
    EXPECT_THROW(hm.read(1024, &b, 1), PanicError);
    EXPECT_THROW(hm.write(1020, "hello", 5), PanicError);
}

TEST(HostMemory, AllocatorAlignsAndAvoidsZero)
{
    HostMemory hm(1024 * 1024);
    Addr a = hm.alloc(100, 64);
    Addr b = hm.alloc(100, 64);
    EXPECT_NE(a, 0u);
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_GE(b, a + 100);
}

TEST(HostMemory, AllocatorExhaustionIsFatal)
{
    HostMemory hm(4096);
    EXPECT_THROW(hm.alloc(8192), FatalError);
}

TEST(HostMemory, DirectDataPointers)
{
    HostMemory hm(4096);
    hm.data(100)[0] = 0x5a;
    EXPECT_EQ(hm.data(100)[0], 0x5a);
    const HostMemory &chm = hm;
    EXPECT_EQ(chm.data(100)[0], 0x5a);
}

TEST(HostMemory, UnwrittenLastBytesReadZero)
{
    NicController nic(NicConfig{});
    HostMemory &hm = nic.hostMemory();
    std::uint8_t b = 0xff;
    hm.read(hm.capacity() - 1, &b, 1);
    EXPECT_EQ(b, 0);

    OverlayMem &ram = nic.sdram().store();
    ASSERT_EQ(ram.size(), nic.config().sdramBytes);
    b = 0xff;
    ram.readBytes(ram.size() - 1, &b, 1);
    EXPECT_EQ(b, 0);
}

TEST(HostMemory, DefaultNicIsResidentOnlyWhereTouched)
{
    // 64 MB of host memory and 8 MB of SDRAM are mapped demand-zero:
    // building and starting a NIC touches only rings, descriptors and
    // the firmware's frame slots, not the whole capacity.
    std::size_t before = residentBytes();
    NicController nic(NicConfig{});
    nic.startRun();
    std::size_t after = residentBytes();
    EXPECT_LT(after - before, 16u * 1024 * 1024)
        << "constructing and starting a NIC made " << (after - before)
        << " B resident";
}

TEST(HostMemory, UnmappableStoreIsFatal)
{
    // 2^60 B exceeds the address space, so the mapping fails at once
    // without allocating anything.
    NicConfig cfg;
    cfg.sdramBytes = 1ull << 60;
    try {
        NicController nic(cfg);
        FAIL() << "a 2^60 B SDRAM was built";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("sdram"), std::string::npos)
            << e.what();
    }
}
