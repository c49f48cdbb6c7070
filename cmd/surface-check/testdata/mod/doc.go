package jungle
